package snap

import (
	"path/filepath"
	"strings"
	"testing"

	"graphmat/internal/sparse"
)

// TestRejectsPartitionWithoutAux checks both gates on a hand-built image
// whose partition has columns but no AUX index: the writer's Validate, and
// Open on a file written around it. The push kernels probe AUX without a
// binary-search fallback, so this shape must never reach them.
func TestRejectsPartitionWithoutAux(t *testing.T) {
	img := &Image{
		Epoch: 1, Tag: 1,
		NRows: 4, NCols: 4, NEdges: 2,
		Directions: DirsOut,
		Partitions: 1,
		Fwd: []sparse.Triple[float32]{
			{Row: 1, Col: 0, Val: 1},
			{Row: 2, Col: 3, Val: 2},
		},
		OutDeg: []uint32{1, 0, 0, 1},
		InDeg:  []uint32{0, 1, 1, 0},
		Out: []PartImage{{
			RowLo: 0, RowHi: 4,
			JC:  []uint32{0, 3},
			CP:  []uint32{0, 1, 2},
			IR:  []uint32{1, 2},
			Val: []float32{1, 2},
		}},
	}
	err := img.Validate()
	if err == nil || !strings.Contains(err.Error(), "no AUX index") {
		t.Errorf("Validate = %v, want a missing-AUX rejection", err)
	}

	path := filepath.Join(t.TempDir(), "noaux.snap")
	if err := writeImage(path, img); err != nil {
		t.Fatal(err)
	}
	sn, err := Open(path)
	if err == nil {
		sn.Close()
		t.Fatal("Open accepted a partition with columns but no AUX index")
	}
	if !strings.Contains(err.Error(), "no AUX index") {
		t.Errorf("Open error = %q, want a missing-AUX rejection", err)
	}

	// An empty partition legitimately carries no index.
	img.Out[0] = PartImage{RowLo: 0, RowHi: 4, CP: []uint32{0}}
	img.Fwd, img.NEdges = nil, 0
	img.OutDeg, img.InDeg = []uint32{0, 0, 0, 0}, []uint32{0, 0, 0, 0}
	if err := img.Validate(); err != nil {
		t.Errorf("empty partition without AUX rejected: %v", err)
	}
}
