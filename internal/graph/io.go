package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"graphmat/internal/sparse"
)

// This file implements the graph interchange formats the paper's tooling
// consumes: Matrix Market coordinate files (the University of Florida sparse
// collection format, §5.1) both read and write, whitespace edge lists, and
// two binary formats — the legacy GMATBIN1 record stream and the sectioned
// GMATBIN2 (the C++ GraphMat release similarly ships an MTX-to-binary
// converter).
//
// All text parsers are chunk-parallel: the input is split on line boundaries,
// chunks parse in worker goroutines, and the per-chunk fragments concatenate
// in input order, so the parallel result is bit-identical to a sequential
// parse. Parsers never trust size claims in headers for allocation — every
// allocation is bounded by the actual input length — and report errors with
// 1-based line numbers.

// LoadOptions configures graph loading.
type LoadOptions struct {
	// Parallelism is the ingestion worker count used for chunked parsing;
	// 0 means GOMAXPROCS, 1 forces the sequential path. Parallel and
	// sequential ingestion produce bit-identical triples.
	Parallelism int
	// MinVertices, for edge lists, is a lower bound on the vertex count.
	MinVertices uint32
}

func (o LoadOptions) workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// ---------------------------------------------------------------------------
// Line chunking

// lineChunk is a byte range of the input starting at 1-based line startLine.
type lineChunk struct {
	data      []byte
	startLine int
}

// splitLineChunks cuts data into at most n chunks on line boundaries,
// tracking each chunk's starting line number.
func splitLineChunks(data []byte, n, firstLine int) []lineChunk {
	if n < 1 {
		n = 1
	}
	chunks := make([]lineChunk, 0, n)
	start, line := 0, firstLine
	for i := 0; i < n && start < len(data); i++ {
		end := len(data)
		if i < n-1 {
			target := start + (len(data)-start)/(n-i)
			if target < len(data) {
				if nl := bytes.IndexByte(data[target:], '\n'); nl >= 0 {
					end = target + nl + 1
				}
			}
		}
		chunks = append(chunks, lineChunk{data: data[start:end], startLine: line})
		line += bytes.Count(data[start:end], []byte{'\n'})
		start = end
	}
	return chunks
}

// forEachLine calls fn once per line of the chunk (terminator and any
// trailing \r stripped) with its absolute 1-based line number. A non-nil
// error stops the walk.
func forEachLine(c lineChunk, fn func(lineno int, line []byte) error) error {
	lineno, data := c.startLine, c.data
	for len(data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			line, data = data, nil
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if err := fn(lineno, line); err != nil {
			return err
		}
		lineno++
	}
	return nil
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\v' || b == '\f' || b == '\r'
}

// nextField returns the next whitespace-separated field at or after pos.
func nextField(line []byte, pos int) (field []byte, next int, ok bool) {
	for pos < len(line) && isSpace(line[pos]) {
		pos++
	}
	if pos >= len(line) {
		return nil, pos, false
	}
	start := pos
	for pos < len(line) && !isSpace(line[pos]) {
		pos++
	}
	return line[start:pos], pos, true
}

// parseUint32 parses an unsigned decimal (digits only), rejecting overflow —
// the allocation-free equivalent of strconv.ParseUint(s, 10, 32).
func parseUint32(b []byte) (uint32, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid number %q", b)
		}
		v = v*10 + uint64(c-'0')
		if v > math.MaxUint32 {
			return 0, fmt.Errorf("number %q overflows uint32", b)
		}
	}
	return uint32(v), nil
}

// parseWeight parses an edge weight as a float32, rejecting NaN and ±Inf: no
// algorithm's result is defined over them, and a non-finite value that
// reaches a result cannot be encoded as JSON.
func parseWeight(b []byte) (float32, error) {
	v, err := strconv.ParseFloat(string(b), 32)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite weight %q", b)
	}
	return float32(v), nil
}

// finite reports whether a decoded weight is neither NaN nor ±Inf.
func finite(w float32) bool {
	return !math.IsNaN(float64(w)) && !math.IsInf(float64(w), 0)
}

// lineCap bounds an entry-slice preallocation by what the input could
// possibly hold: a data line is at least 4 bytes ("0 1\n"), so size claims in
// headers never drive allocation beyond len/4+1.
func lineCap(inputLen int) int {
	return inputLen/4 + 1
}

// ---------------------------------------------------------------------------
// Matrix Market

// ReadMTX parses a Matrix Market coordinate file sequentially; see ParseMTX.
func ReadMTX(r io.Reader) (*sparse.COO[float32], error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mtx: %v", err)
	}
	return ParseMTX(data, LoadOptions{Parallelism: 1})
}

// ParseMTX parses a Matrix Market coordinate file into adjacency triples with
// Row = source, Col = destination (1-based indices in the file, 0-based in
// the result). Supported qualifiers: real/integer/pattern values and
// general/symmetric symmetry; symmetric entries are mirrored, pattern entries
// get weight 1. The body is parsed by opt.Parallelism workers; the entry
// count must match the size line exactly.
func ParseMTX(data []byte, opt LoadOptions) (*sparse.COO[float32], error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("mtx: empty input")
	}
	headerEnd := bytes.IndexByte(data, '\n')
	if headerEnd < 0 {
		headerEnd = len(data)
	}
	headerLine := strings.TrimSuffix(string(data[:headerEnd]), "\r")
	header := strings.Fields(strings.ToLower(headerLine))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("mtx: unsupported header %q", headerLine)
	}
	valueType, symmetry := header[3], header[4]
	switch valueType {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mtx: unsupported value type %q", valueType)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("mtx: unsupported symmetry %q", symmetry)
	}

	// Skip comments to the size line, sequentially.
	var nrows, ncols uint32
	nnz := -1
	rest := data[min(headerEnd+1, len(data)):]
	bodyLine := 2
	for nnz < 0 && len(rest) > 0 {
		lineEnd := bytes.IndexByte(rest, '\n')
		var line []byte
		if lineEnd < 0 {
			line, rest = rest, nil
		} else {
			line, rest = rest[:lineEnd], rest[lineEnd+1:]
		}
		lineno := bodyLine
		bodyLine++
		f0, pos, ok := nextField(line, 0)
		if !ok || f0[0] == '%' {
			continue // blank or comment
		}
		var err error
		if nrows, err = parseUint32(f0); err != nil {
			return nil, fmt.Errorf("mtx line %d: bad row count: %v", lineno, err)
		}
		f1, pos, ok := nextField(line, pos)
		if !ok {
			return nil, fmt.Errorf("mtx line %d: bad size line %q", lineno, line)
		}
		if ncols, err = parseUint32(f1); err != nil {
			return nil, fmt.Errorf("mtx line %d: bad col count: %v", lineno, err)
		}
		f2, pos, ok := nextField(line, pos)
		if !ok {
			return nil, fmt.Errorf("mtx line %d: bad size line %q", lineno, line)
		}
		n, err := parseUint32(f2)
		if err != nil {
			return nil, fmt.Errorf("mtx line %d: bad nnz: %v", lineno, err)
		}
		if _, _, extra := nextField(line, pos); extra {
			return nil, fmt.Errorf("mtx line %d: bad size line %q", lineno, line)
		}
		nnz = int(n)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("mtx: missing size line")
	}

	chunks := splitLineChunks(rest, opt.workers(), bodyLine)
	frags := make([]mtxFragment, len(chunks))
	sparse.ParallelFor(len(chunks), opt.workers(), func(i int) {
		frags[i] = parseMTXChunk(chunks[i], nrows, ncols, valueType == "pattern", symmetry == "symmetric")
	})

	read, total := 0, 0
	for _, f := range frags {
		if f.err != nil {
			return nil, f.err // chunks are in input order: first error wins
		}
		read += f.read
		total += len(f.entries)
	}
	if read != nnz {
		return nil, fmt.Errorf("mtx: expected %d entries, got %d", nnz, read)
	}
	coo := sparse.NewCOO[float32](nrows, ncols)
	coo.Entries = make([]sparse.Triple[float32], 0, total)
	for _, f := range frags {
		coo.Entries = append(coo.Entries, f.entries...)
	}
	return coo, nil
}

type mtxFragment struct {
	entries []sparse.Triple[float32]
	read    int // data lines consumed (mirrors not counted)
	err     error
}

func parseMTXChunk(c lineChunk, nrows, ncols uint32, pattern, symmetric bool) mtxFragment {
	capGuess := lineCap(len(c.data))
	if symmetric {
		capGuess *= 2
	}
	frag := mtxFragment{entries: make([]sparse.Triple[float32], 0, capGuess)}
	frag.err = forEachLine(c, func(lineno int, line []byte) error {
		f0, pos, ok := nextField(line, 0)
		if !ok || f0[0] == '%' {
			return nil
		}
		i, err := parseUint32(f0)
		if err != nil {
			return fmt.Errorf("mtx line %d: bad row index: %v", lineno, err)
		}
		f1, pos, ok := nextField(line, pos)
		if !ok {
			return fmt.Errorf("mtx line %d: bad entry %q", lineno, line)
		}
		j, err := parseUint32(f1)
		if err != nil {
			return fmt.Errorf("mtx line %d: bad col index: %v", lineno, err)
		}
		if i < 1 || j < 1 || i > nrows || j > ncols {
			return fmt.Errorf("mtx line %d: entry (%d,%d) out of bounds %dx%d", lineno, i, j, nrows, ncols)
		}
		w := float32(1)
		if !pattern {
			f2, _, ok := nextField(line, pos)
			if !ok {
				return fmt.Errorf("mtx line %d: missing value in %q", lineno, line)
			}
			v, err := parseWeight(f2)
			if err != nil {
				return fmt.Errorf("mtx line %d: bad value %q: %v", lineno, f2, err)
			}
			w = v
		}
		frag.entries = append(frag.entries, sparse.Triple[float32]{Row: i - 1, Col: j - 1, Val: w})
		if symmetric && i != j {
			frag.entries = append(frag.entries, sparse.Triple[float32]{Row: j - 1, Col: i - 1, Val: w})
		}
		frag.read++
		return nil
	})
	return frag
}

// WriteMTX writes adjacency triples as a Matrix Market coordinate real
// general file.
func WriteMTX(w io.Writer, coo *sparse.COO[float32]) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		coo.NRows, coo.NCols, len(coo.Entries)); err != nil {
		return err
	}
	for _, t := range coo.Entries {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", t.Row+1, t.Col+1, t.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ---------------------------------------------------------------------------
// Edge lists

// ReadEdgeList parses an edge list sequentially; see ParseEdgeList.
func ReadEdgeList(r io.Reader, minVertices uint32) (*sparse.COO[float32], error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseEdgeList(data, LoadOptions{Parallelism: 1, MinVertices: minVertices})
}

// ParseEdgeList parses whitespace-separated "src dst [weight]" lines with
// 0-based vertex ids on opt.Parallelism workers. Lines starting with '#' or
// '%' are comments. The vertex count is one more than the maximum id seen, or
// opt.MinVertices if larger.
func ParseEdgeList(data []byte, opt LoadOptions) (*sparse.COO[float32], error) {
	chunks := splitLineChunks(data, opt.workers(), 1)
	frags := make([]edgeFragment, len(chunks))
	sparse.ParallelFor(len(chunks), opt.workers(), func(i int) {
		frags[i] = parseEdgeChunk(chunks[i])
	})

	total, maxID := 0, int64(-1)
	for _, f := range frags {
		if f.err != nil {
			return nil, f.err
		}
		total += len(f.entries)
		if f.maxID > maxID {
			maxID = f.maxID
		}
	}
	// A vertex id needs id+1 vertices, and dimensions are uint32: the
	// largest representable id is 2^32−2. Without this check uint32(maxID+1)
	// would wrap to 0 and hand callers a corrupt 0-vertex COO with entries.
	if maxID >= math.MaxUint32 {
		return nil, fmt.Errorf("edgelist: vertex id %d exceeds the %d limit", maxID, uint32(math.MaxUint32-1))
	}
	coo := sparse.NewCOO[float32](0, 0)
	coo.Entries = make([]sparse.Triple[float32], 0, total)
	for _, f := range frags {
		coo.Entries = append(coo.Entries, f.entries...)
	}
	n := uint32(maxID + 1)
	if n < opt.MinVertices {
		n = opt.MinVertices
	}
	coo.NRows, coo.NCols = n, n
	return coo, nil
}

// WriteEdgeList writes "src dst weight" lines with 0-based ids. Note the
// format cannot express trailing isolated vertices: ParseEdgeList infers the
// vertex count from the largest id present (or its MinVertices option).
func WriteEdgeList(w io.Writer, coo *sparse.COO[float32]) error {
	bw := bufio.NewWriter(w)
	for _, t := range coo.Entries {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", t.Row, t.Col, t.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type edgeFragment struct {
	entries []sparse.Triple[float32]
	maxID   int64
	err     error
}

func parseEdgeChunk(c lineChunk) edgeFragment {
	frag := edgeFragment{
		entries: make([]sparse.Triple[float32], 0, lineCap(len(c.data))),
		maxID:   -1,
	}
	frag.err = forEachLine(c, func(lineno int, line []byte) error {
		f0, pos, ok := nextField(line, 0)
		if !ok || f0[0] == '#' || f0[0] == '%' {
			return nil
		}
		src, err := parseUint32(f0)
		if err != nil {
			return fmt.Errorf("edgelist line %d: %v", lineno, err)
		}
		f1, pos, ok := nextField(line, pos)
		if !ok {
			return fmt.Errorf("edgelist line %d: need at least src dst", lineno)
		}
		dst, err := parseUint32(f1)
		if err != nil {
			return fmt.Errorf("edgelist line %d: %v", lineno, err)
		}
		w := float32(1)
		if f2, _, ok := nextField(line, pos); ok {
			v, err := parseWeight(f2)
			if err != nil {
				return fmt.Errorf("edgelist line %d: %v", lineno, err)
			}
			w = v
		}
		frag.entries = append(frag.entries, sparse.Triple[float32]{Row: src, Col: dst, Val: w})
		if int64(src) > frag.maxID {
			frag.maxID = int64(src)
		}
		if int64(dst) > frag.maxID {
			frag.maxID = int64(dst)
		}
		return nil
	})
	return frag
}

// ---------------------------------------------------------------------------
// Binary formats

const (
	binMagic  = "GMATBIN1"
	binMagic2 = "GMATBIN2"

	binRecordSize = 12 // u32 src, u32 dst, u32 float bits

	// binV1HeaderSize is magic + u32 nrows + u64 nedges.
	binV1HeaderSize = 8 + 4 + 8
	// binV2HeaderSize is magic + u32 nrows + u32 ncols + u64 nedges +
	// u32 nsections; the section table follows.
	binV2HeaderSize     = 8 + 4 + 4 + 8 + 4
	binV2SectionEntry   = 16 // u64 first edge, u64 edge count
	binV2MaxSections    = 1 << 16
	binV2DefaultSection = 16
)

// WriteBinary writes the legacy GMATBIN1 format: an 8-byte magic, vertex
// count, edge count, then (src,dst,weight) little-endian triples. New files
// should prefer WriteBinary2, whose section table lets readers fan chunks out
// to workers.
//
// The V1 header has one dimension field, so only square matrices round-trip;
// a rectangular coo is rejected rather than silently read back as NCols ==
// NRows.
func WriteBinary(w io.Writer, coo *sparse.COO[float32]) error {
	if coo.NRows != coo.NCols {
		return fmt.Errorf("binary graph: GMATBIN1 cannot represent a %dx%d matrix (one dimension field); use WriteBinary2",
			coo.NRows, coo.NCols)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], coo.NRows)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(coo.Entries)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, binRecordSize)
	for _, t := range coo.Entries {
		binary.LittleEndian.PutUint32(rec[0:4], t.Row)
		binary.LittleEndian.PutUint32(rec[4:8], t.Col)
		binary.LittleEndian.PutUint32(rec[8:12], floatBits(t.Val))
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBinary2 writes the sectioned GMATBIN2 format: magic, dimensions, edge
// count, then a table of (first edge, edge count) sections covering the
// fixed-size record array. Sections let ParseBinary hand each worker a byte
// range without re-scanning; sections ≤ 0 picks the default (16). Record
// encoding runs on one goroutine per section; the bytes written are
// independent of the worker count.
func WriteBinary2(w io.Writer, coo *sparse.COO[float32], sections int) error {
	m := len(coo.Entries)
	if sections <= 0 {
		sections = binV2DefaultSection
	}
	if sections > m {
		sections = m
	}
	if sections < 1 {
		sections = 1
	}
	// The reader rejects section counts above binV2MaxSections; never write
	// a file our own ParseBinary would refuse.
	if sections > binV2MaxSections {
		sections = binV2MaxSections
	}

	hdr := make([]byte, binV2HeaderSize+sections*binV2SectionEntry)
	copy(hdr, binMagic2)
	binary.LittleEndian.PutUint32(hdr[8:12], coo.NRows)
	binary.LittleEndian.PutUint32(hdr[12:16], coo.NCols)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(m))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(sections))
	starts := make([]int, sections+1)
	for s := 0; s <= sections; s++ {
		starts[s] = s * m / sections
	}
	for s := 0; s < sections; s++ {
		off := binV2HeaderSize + s*binV2SectionEntry
		binary.LittleEndian.PutUint64(hdr[off:off+8], uint64(starts[s]))
		binary.LittleEndian.PutUint64(hdr[off+8:off+16], uint64(starts[s+1]-starts[s]))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	bufs := make([][]byte, sections)
	sparse.ParallelFor(sections, runtime.GOMAXPROCS(0), func(s int) {
		ents := coo.Entries[starts[s]:starts[s+1]]
		buf := make([]byte, len(ents)*binRecordSize)
		for i, t := range ents {
			off := i * binRecordSize
			binary.LittleEndian.PutUint32(buf[off:off+4], t.Row)
			binary.LittleEndian.PutUint32(buf[off+4:off+8], t.Col)
			binary.LittleEndian.PutUint32(buf[off+8:off+12], floatBits(t.Val))
		}
		bufs[s] = buf
	})
	for _, buf := range bufs {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary reads either binary format sequentially; see ParseBinary.
func ReadBinary(r io.Reader) (*sparse.COO[float32], error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("binary graph: %v", err)
	}
	return ParseBinary(data, LoadOptions{Parallelism: 1})
}

// ParseBinary reads a GMATBIN1 or GMATBIN2 payload, dispatching on the magic.
// Headers are validated against the actual input length before any
// allocation, so a forged edge count can never over-allocate. Record decoding
// fans out to opt.Parallelism workers over disjoint ranges of the result.
func ParseBinary(data []byte, opt LoadOptions) (*sparse.COO[float32], error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("binary graph: truncated magic (%d bytes)", len(data))
	}
	switch string(data[:8]) {
	case binMagic:
		return parseBinaryV1(data, opt)
	case binMagic2:
		return parseBinaryV2(data, opt)
	}
	return nil, fmt.Errorf("binary graph: bad magic %q", data[:8])
}

func parseBinaryV1(data []byte, opt LoadOptions) (*sparse.COO[float32], error) {
	if len(data) < binV1HeaderSize {
		return nil, fmt.Errorf("binary graph: truncated header (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data[8:12])
	m := binary.LittleEndian.Uint64(data[12:20])
	payload := data[binV1HeaderSize:]
	if m > uint64(len(payload)/binRecordSize) {
		return nil, fmt.Errorf("binary graph: header claims %d edges, input holds %d",
			m, len(payload)/binRecordSize)
	}
	coo := sparse.NewCOO[float32](n, n)
	coo.Entries = make([]sparse.Triple[float32], m)
	if bad := decodeRecords(coo.Entries, payload, opt.workers()); bad >= 0 {
		return nil, nonFiniteRecord(bad, coo.Entries[bad].Val)
	}
	return coo, nil
}

func nonFiniteRecord(i int, w float32) error {
	return fmt.Errorf("binary graph: record %d: non-finite weight %v", i, w)
}

func parseBinaryV2(data []byte, opt LoadOptions) (*sparse.COO[float32], error) {
	if len(data) < binV2HeaderSize {
		return nil, fmt.Errorf("binary graph: truncated header (%d bytes)", len(data))
	}
	nrows := binary.LittleEndian.Uint32(data[8:12])
	ncols := binary.LittleEndian.Uint32(data[12:16])
	m := binary.LittleEndian.Uint64(data[16:24])
	nsect := binary.LittleEndian.Uint32(data[24:28])
	if nsect > binV2MaxSections {
		return nil, fmt.Errorf("binary graph: unreasonable section count %d", nsect)
	}
	if nsect == 0 && m > 0 {
		return nil, fmt.Errorf("binary graph: %d edges but no sections", m)
	}
	tableLen := int(nsect) * binV2SectionEntry
	if len(data) < binV2HeaderSize+tableLen {
		return nil, fmt.Errorf("binary graph: truncated section table")
	}
	payload := data[binV2HeaderSize+tableLen:]
	if m > uint64(len(payload)/binRecordSize) {
		return nil, fmt.Errorf("binary graph: header claims %d edges, input holds %d",
			m, len(payload)/binRecordSize)
	}
	if uint64(len(payload)) != m*binRecordSize {
		return nil, fmt.Errorf("binary graph: %d trailing bytes after %d edges",
			uint64(len(payload))-m*binRecordSize, m)
	}

	type section struct{ start, count uint64 }
	sections := make([]section, nsect)
	var cursor uint64
	for s := range sections {
		off := binV2HeaderSize + s*binV2SectionEntry
		sections[s] = section{
			start: binary.LittleEndian.Uint64(data[off : off+8]),
			count: binary.LittleEndian.Uint64(data[off+8 : off+16]),
		}
		if sections[s].start != cursor || sections[s].count > m-cursor {
			return nil, fmt.Errorf("binary graph: section %d (start %d, count %d) does not tile %d edges",
				s, sections[s].start, sections[s].count, m)
		}
		cursor += sections[s].count
	}
	if cursor != m {
		return nil, fmt.Errorf("binary graph: sections cover %d of %d edges", cursor, m)
	}

	coo := sparse.NewCOO[float32](nrows, ncols)
	coo.Entries = make([]sparse.Triple[float32], m)
	firstBad := make([]int, len(sections))
	sparse.ParallelFor(len(sections), opt.workers(), func(s int) {
		sec := sections[s]
		firstBad[s] = decodeRecords(coo.Entries[sec.start:sec.start+sec.count],
			payload[sec.start*binRecordSize:(sec.start+sec.count)*binRecordSize], 1)
	})
	for s, bad := range firstBad {
		if bad >= 0 {
			i := int(sections[s].start) + bad
			return nil, nonFiniteRecord(i, coo.Entries[i].Val)
		}
	}
	return coo, nil
}

// decodeRecords fills dst from consecutive 12-byte records, splitting the
// range across workers, and returns the index of the first record whose
// weight is NaN or ±Inf, or -1 when every weight is finite.
func decodeRecords(dst []sparse.Triple[float32], payload []byte, workers int) int {
	n := len(dst)
	nchunks := workers
	if nchunks > n {
		nchunks = n
	}
	if nchunks < 1 {
		nchunks = 1
	}
	firstBad := make([]int, nchunks)
	sparse.ParallelFor(nchunks, workers, func(c int) {
		lo, hi := c*n/nchunks, (c+1)*n/nchunks
		firstBad[c] = -1
		for i := lo; i < hi; i++ {
			off := i * binRecordSize
			dst[i] = sparse.Triple[float32]{
				Row: binary.LittleEndian.Uint32(payload[off : off+4]),
				Col: binary.LittleEndian.Uint32(payload[off+4 : off+8]),
				Val: floatFromBits(binary.LittleEndian.Uint32(payload[off+8 : off+12])),
			}
			if firstBad[c] < 0 && !finite(dst[i].Val) {
				firstBad[c] = i
			}
		}
	})
	for _, bad := range firstBad {
		if bad >= 0 {
			return bad
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// File loading

// LoadFile reads a graph file, dispatching on extension: .mtx, .bin (either
// binary version), else text edge list. Parsing is parallel across all cores;
// use LoadFileOptions to control the worker count.
func LoadFile(path string) (*sparse.COO[float32], error) {
	return LoadFileOptions(path, LoadOptions{})
}

// LoadFileOptions is LoadFile with explicit ingestion options.
func LoadFileOptions(path string, opt LoadOptions) (*sparse.COO[float32], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(path, ".mtx"):
		return ParseMTX(data, opt)
	case strings.HasSuffix(path, ".bin"):
		return ParseBinary(data, opt)
	default:
		return ParseEdgeList(data, opt)
	}
}
