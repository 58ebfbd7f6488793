package graph

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphmat/internal/sparse"
)

func TestReadMTXGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 2 1.5
2 3 2.0
3 1 0.5
1 3 1.0
`
	coo, err := ReadMTX(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if coo.NRows != 3 || coo.NCols != 3 || len(coo.Entries) != 4 {
		t.Fatalf("dims/nnz wrong: %dx%d %d", coo.NRows, coo.NCols, len(coo.Entries))
	}
	if coo.Entries[0] != (sparse.Triple[float32]{Row: 0, Col: 1, Val: 1.5}) {
		t.Errorf("entry 0 = %v", coo.Entries[0])
	}
}

func TestReadMTXSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 3
`
	coo, err := ReadMTX(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// (2,1) mirrors to (1,2); diagonal (3,3) does not mirror.
	if len(coo.Entries) != 3 {
		t.Fatalf("nnz = %d, want 3", len(coo.Entries))
	}
	for _, e := range coo.Entries {
		if e.Val != 1 {
			t.Errorf("pattern value = %v", e.Val)
		}
	}
}

func TestReadMTXErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
	}
	for i, in := range cases {
		if _, err := ReadMTX(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestMTXRoundTrip(t *testing.T) {
	coo := sparse.NewCOO[float32](5, 5)
	coo.Add(0, 1, 1.25)
	coo.Add(4, 0, 3)
	coo.Add(2, 2, 0.5)
	var buf bytes.Buffer
	if err := WriteMTX(&buf, coo); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMTX(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 3 || back.NRows != 5 {
		t.Fatalf("round trip: %d entries %d rows", len(back.Entries), back.NRows)
	}
	for i := range coo.Entries {
		if back.Entries[i] != coo.Entries[i] {
			t.Errorf("entry %d: %v != %v", i, back.Entries[i], coo.Entries[i])
		}
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
0 1
1 2 3.5
% another comment

2 0 0.25
`
	coo, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if coo.NRows != 3 || len(coo.Entries) != 3 {
		t.Fatalf("n=%d nnz=%d", coo.NRows, len(coo.Entries))
	}
	if coo.Entries[1].Val != 3.5 {
		t.Errorf("weight = %v", coo.Entries[1].Val)
	}
	if coo.Entries[0].Val != 1 {
		t.Errorf("default weight = %v", coo.Entries[0].Val)
	}
	// minVertices grows the matrix.
	coo2, err := ReadEdgeList(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if coo2.NRows != 10 {
		t.Errorf("minVertices ignored: n=%d", coo2.NRows)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	coo := sparse.NewCOO[float32](100, 100)
	for i := uint32(0); i < 99; i++ {
		coo.Add(i, i+1, float32(i)*0.5)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, coo); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NRows != 100 || len(back.Entries) != 99 {
		t.Fatalf("n=%d nnz=%d", back.NRows, len(back.Entries))
	}
	for i := range coo.Entries {
		if back.Entries[i] != coo.Entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("truncated magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("WRONGMAG...."))); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	coo := sparse.NewCOO[float32](10, 10)
	coo.Add(0, 1, 1)
	coo.Add(1, 2, 1)
	if err := WriteBinary(&buf, coo); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-6]
	// Truncation diagnostics name both sides of the mismatch — the claimed
	// edge count and how many records the input actually holds — in both
	// formats. (The V1 message used to repeat the holds count in the claims
	// slot.)
	_, err := ReadBinary(bytes.NewReader(trunc))
	if err == nil {
		t.Error("truncated V1 body accepted")
	} else if !strings.Contains(err.Error(), "header claims 2 edges, input holds 1") {
		t.Errorf("V1 truncation message = %q", err)
	}
	var buf2 bytes.Buffer
	if err := WriteBinary2(&buf2, coo, 1); err != nil {
		t.Fatal(err)
	}
	_, err = ReadBinary(bytes.NewReader(buf2.Bytes()[:buf2.Len()-6]))
	if err == nil {
		t.Error("truncated V2 body accepted")
	} else if !strings.Contains(err.Error(), "header claims 2 edges, input holds 1") {
		t.Errorf("V2 truncation message = %q", err)
	}

	// A non-finite weight is refused with its record index, in both formats
	// and whatever the parallelism.
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		nf := sparse.NewCOO[float32](10, 10)
		nf.Add(0, 1, 1)
		nf.Add(1, 2, bad)
		nf.Add(2, 3, 1)
		var v1, v2 bytes.Buffer
		if err := WriteBinary(&v1, nf); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary2(&v2, nf, 2); err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{v1.Bytes(), v2.Bytes()} {
			for _, p := range []int{1, 4} {
				_, err := ParseBinary(data, LoadOptions{Parallelism: p})
				if err == nil || !strings.Contains(err.Error(), "record 1") {
					t.Errorf("weight %v, parallelism %d: error %v, want a record-1 rejection", bad, p, err)
				}
			}
		}
	}

	// GMATBIN1 has a single dimension field: a rectangular matrix must be
	// rejected (pointing at WriteBinary2) rather than silently written as
	// square and read back with the wrong NCols.
	rect := sparse.NewCOO[float32](3, 2)
	rect.Add(0, 1, 1)
	if err := WriteBinary(&bytes.Buffer{}, rect); err == nil {
		t.Error("WriteBinary accepted a 3x2 matrix")
	} else if !strings.Contains(err.Error(), "WriteBinary2") {
		t.Errorf("non-square rejection = %q, want a pointer at WriteBinary2", err)
	}
	var rectBuf bytes.Buffer
	if err := WriteBinary2(&rectBuf, rect, 0); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&rectBuf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NRows != 3 || back.NCols != 2 {
		t.Errorf("V2 rectangular round-trip = %dx%d, want 3x2", back.NRows, back.NCols)
	}
}

func TestLoadFileDispatch(t *testing.T) {
	dir := t.TempDir()

	coo := sparse.NewCOO[float32](4, 4)
	coo.Add(0, 1, 2)
	coo.Add(1, 2, 3)

	mtxPath := filepath.Join(dir, "g.mtx")
	f, err := os.Create(mtxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMTX(f, coo); err != nil {
		t.Fatal(err)
	}
	f.Close()

	binPath := filepath.Join(dir, "g.bin")
	f, err = os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(f, coo); err != nil {
		t.Fatal(err)
	}
	f.Close()

	txtPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txtPath, []byte("0 1 2\n1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{mtxPath, binPath, txtPath} {
		got, err := LoadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(got.Entries) != 2 {
			t.Errorf("%s: nnz = %d", p, len(got.Entries))
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Error("missing file accepted")
	}
}
