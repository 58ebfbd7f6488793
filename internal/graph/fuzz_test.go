package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"graphmat/internal/sparse"
)

// COOF abbreviates the concrete triple type the readers produce.
type COOF = sparse.COO[float32]

func NewCOOF(n uint32) *COOF { return sparse.NewCOO[float32](n, n) }

// The fuzz harness holds the readers to two promises: arbitrary input never
// panics or allocates beyond the input's own size (headers are claims, not
// budgets), and whenever a parse succeeds, the parallel chunked parse is
// bit-identical to the sequential one — the differential guarantee checked on
// every fuzz input, not just the curated corpus.

// sameParse compares a sequential and a parallel parse of the same bytes.
// Values compare as float bits so a NaN payload cannot mask a divergence.
func sameParse(t *testing.T, kind string, parse func(parallelism int) (*COOF, error)) {
	t.Helper()
	seq, seqErr := parse(1)
	par, parErr := parse(6)
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("%s: sequential err %v vs parallel err %v", kind, seqErr, parErr)
	}
	if seqErr != nil {
		return
	}
	if seq.NRows != par.NRows || seq.NCols != par.NCols {
		t.Fatalf("%s: dims %dx%d vs %dx%d", kind, seq.NRows, seq.NCols, par.NRows, par.NCols)
	}
	if len(seq.Entries) != len(par.Entries) {
		t.Fatalf("%s: %d entries vs %d", kind, len(seq.Entries), len(par.Entries))
	}
	for i := range seq.Entries {
		a, b := seq.Entries[i], par.Entries[i]
		if a.Row != b.Row || a.Col != b.Col || math.Float32bits(a.Val) != math.Float32bits(b.Val) {
			t.Fatalf("%s: entry %d: %v vs %v", kind, i, a, b)
		}
	}
}

func FuzzReadMTX(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.5\n3 1 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n% c\n4 4 2\n2 1\n4 4\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 7\n"))
	// Malformed headers.
	f.Add([]byte(""))
	f.Add([]byte("%%MatrixMarket matrix array real general\n2 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate complex hermitian\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general"))
	// Overflow-sized and negative-looking counts: must error, never allocate.
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 99999999999999999999\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 -5\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n4294967295 4294967295 1000000\n1 1 1\n"))
	// Truncated payloads and out-of-bounds entries.
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n1 2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n"))
	// Non-finite values.
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1\n2 1 -inf\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 NaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameParse(t, "mtx", func(p int) (*COOF, error) {
			return ParseMTX(data, LoadOptions{Parallelism: p})
		})
	})
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2 3.5\n# comment\n\n2 0 0.25\n"))
	f.Add([]byte("% other comment style\r\n7 9\r\n"))
	f.Add([]byte("0 1 nope\n"))
	f.Add([]byte("42\n"))
	f.Add([]byte("4294967296 1\n")) // id overflows uint32
	f.Add([]byte("4294967295 0\n")) // id parses but the vertex count would wrap
	f.Add([]byte("-1 2\n"))
	f.Add([]byte("1 2 1e999\n"))
	f.Add([]byte("18446744073709551617 0\n"))
	f.Add([]byte("0 1 2\n1 2 inf\n2 0 nan\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameParse(t, "edgelist", func(p int) (*COOF, error) {
			return ParseEdgeList(data, LoadOptions{Parallelism: p, MinVertices: 3})
		})
	})
}

// binV1 hand-assembles a GMATBIN1 payload with an arbitrary header edge count.
func binV1(n uint32, claimed uint64, records []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("GMATBIN1")
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], n)
	binary.LittleEndian.PutUint64(hdr[4:12], claimed)
	buf.Write(hdr)
	buf.Write(records)
	return buf.Bytes()
}

func FuzzReadBinary(f *testing.F) {
	rec := make([]byte, 12)
	binary.LittleEndian.PutUint32(rec[0:4], 1)
	binary.LittleEndian.PutUint32(rec[4:8], 2)
	binary.LittleEndian.PutUint32(rec[8:12], math.Float32bits(1.5))

	f.Add(binV1(3, 1, rec))
	f.Add(binV1(3, 0, nil))
	// The classic crasher: a header that claims 2^61 edges over a 12-byte
	// body must error out instead of allocating ~2^65 bytes.
	f.Add(binV1(3, 1<<61, rec))
	f.Add(binV1(3, 2, rec)) // truncated: one record, two claimed
	nan := bytes.Clone(rec)
	binary.LittleEndian.PutUint32(nan[8:12], math.Float32bits(float32(math.NaN())))
	f.Add(binV1(3, 2, append(bytes.Clone(rec), nan...)))
	f.Add([]byte("GMATBIN"))
	f.Add([]byte("WRONGMAG...."))

	// GMATBIN2 seeds: a valid two-section file, then mutations.
	var v2 bytes.Buffer
	coo := NewCOOF(3)
	coo.Add(0, 1, 1)
	coo.Add(1, 2, 2)
	coo.Add(2, 0, 3)
	if err := WriteBinary2(&v2, coo, 2); err != nil {
		f.Fatal(err)
	}
	valid := v2.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated payload
	f.Add(valid[:28])           // header only, no table
	bad := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(bad[16:24], 1<<60) // absurd edge count
	f.Add(bad)
	bad2 := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(bad2[24:28], 1<<20) // absurd section count
	f.Add(bad2)
	bad3 := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(bad3[28:36], 2) // sections don't tile
	f.Add(bad3)

	f.Fuzz(func(t *testing.T, data []byte) {
		sameParse(t, "binary", func(p int) (*COOF, error) {
			return ParseBinary(data, LoadOptions{Parallelism: p})
		})
	})
}
