package graphmat_test

import (
	"os"
	"path/filepath"
	"testing"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// Snapshot benchmarks: the cost of checkpointing a built instance to a
// GMATSNAP file (BenchmarkSnapWrite), of booting one back as an mmap'd
// zero-copy instance (BenchmarkSnapBoot), and — for the ratio the restart
// acceptance test gates on — the parse-and-rebuild path the snapshot
// replaces (BenchmarkSnapParseBuild), run by make bench-snap. Dataset size
// follows GRAPHMAT_BENCH_SHIFT like the other benchmarks (default -3 → RMAT
// scale 11).

func snapBenchAdj(b *testing.B) *graphmat.COO[float32] {
	b.Helper()
	scale := 14 + benchShift()
	return gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 255})
}

func snapBenchImage(b *testing.B) *graphmat.SnapImage {
	b.Helper()
	spec, _ := algorithms.Lookup("bfs")
	inst, err := spec.Build(snapBenchAdj(b), 0)
	if err != nil {
		b.Fatal(err)
	}
	img, err := inst.SnapImage(1)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

func BenchmarkSnapWrite(b *testing.B) {
	img := snapBenchImage(b)
	path := filepath.Join(b.TempDir(), "g.snap")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphmat.WriteSnap(path, img); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(path); err == nil {
		b.SetBytes(fi.Size())
	}
}

func BenchmarkSnapBoot(b *testing.B) {
	img := snapBenchImage(b)
	path := filepath.Join(b.TempDir(), "g.snap")
	if err := graphmat.WriteSnap(path, img); err != nil {
		b.Fatal(err)
	}
	spec, _ := algorithms.Lookup("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf, err := graphmat.OpenSnap(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spec.Open(sf.Image()); err != nil {
			b.Fatal(err)
		}
		sf.Close()
	}
}

func BenchmarkSnapParseBuild(b *testing.B) {
	adj := snapBenchAdj(b)
	path := filepath.Join(b.TempDir(), "g.bin")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteBinary2(f, adj, 0); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	spec, _ := algorithms.Lookup("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := graphmat.LoadFileOptions(path, graphmat.LoadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spec.Build(loaded, 0); err != nil {
			b.Fatal(err)
		}
	}
}
