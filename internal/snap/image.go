package snap

import (
	"fmt"
	"unsafe"

	"graphmat/internal/sparse"
)

// PartImage is the raw-array dump of one DCSC row partition: exactly the
// slices internal/sparse.DCSC holds, plus the row range and AUX shift that
// reconstruct it without any rebuild. When the image comes from an mmap'd
// snapshot every slice is a zero-copy view into the mapping.
type PartImage struct {
	RowLo, RowHi uint32
	AuxShift     uint32
	JC, CP, IR   []uint32
	Val          []float32
	Aux          []uint32
}

// Image is the serializable form of one graph snapshot. For a property
// graph (Directions != 0) it is a verbatim dump of the graph's internals:
// Fwd holds the Gᵀ triples (Row = dst, Col = src, col-major sorted), Bwd
// the G triples when the In direction is built, and Out/In the partition
// arrays. For a raw adjacency master copy (Directions == 0) only the dims
// and Fwd (Row = src, Col = dst, row-major sorted) are populated.
//
// Epoch is the store's snapshot epoch at write time; Tag is a
// writer-assigned consistency mark (the serving layer stamps the graph
// entry's master epoch, so boot knows which WAL batches the image already
// contains).
type Image struct {
	Epoch        uint64
	Tag          uint64
	NRows, NCols uint32
	NEdges       uint64
	Directions   uint32 // DirsOut | DirsIn; 0 = raw adjacency image
	Partitions   uint32 // the graph's Options.Partitions (0 for raw images)

	Fwd []sparse.Triple[float32]
	Bwd []sparse.Triple[float32]

	OutDeg, InDeg []uint32

	Out, In []PartImage
}

// tripleSize is the serialized (and in-memory) stride of one edge triple.
// The format relies on Triple[float32] having no padding; checkLayout
// guards the assumption.
const tripleSize = 12

// checkLayout verifies the zero-copy contract: a Triple[float32] occupies
// exactly tripleSize contiguous bytes.
func checkLayout() error {
	if s := unsafe.Sizeof(sparse.Triple[float32]{}); s != tripleSize {
		return fmt.Errorf("snap: Triple[float32] is %d bytes, format requires %d", s, tripleSize)
	}
	return nil
}

// Validate checks the image's structural invariants: dimension and length
// consistency, direction bits matching the populated arrays, and per
// partition the DCSC shape contract (CP brackets JC, the last column
// pointer covers IR and Val, AUX ends at the column count). It reads every
// CP array once — O(columns), no allocation — so the writer can afford it
// unconditionally.
func (img *Image) Validate() error {
	if err := checkLayout(); err != nil {
		return err
	}
	if img.NEdges != uint64(len(img.Fwd)) {
		return fmt.Errorf("snap: NEdges %d does not match %d forward triples", img.NEdges, len(img.Fwd))
	}
	if img.Directions == 0 {
		if len(img.Out) != 0 || len(img.In) != 0 || img.Bwd != nil {
			return fmt.Errorf("snap: raw adjacency image (Directions 0) must not carry partitions or backward triples")
		}
		return nil
	}
	if img.Directions&^(DirsOut|DirsIn) != 0 {
		return fmt.Errorf("snap: unknown direction bits %#x", img.Directions)
	}
	if len(img.OutDeg) != int(img.NRows) || len(img.InDeg) != int(img.NRows) {
		return fmt.Errorf("snap: degree arrays (%d out, %d in) do not match %d vertices",
			len(img.OutDeg), len(img.InDeg), img.NRows)
	}
	if img.Directions&DirsOut != 0 {
		if len(img.Out) == 0 {
			return fmt.Errorf("snap: Out direction declared but no out partitions present")
		}
	} else if len(img.Out) != 0 {
		return fmt.Errorf("snap: out partitions present but Out direction not declared")
	}
	if img.Directions&DirsIn != 0 {
		if len(img.In) == 0 {
			return fmt.Errorf("snap: In direction declared but no in partitions present")
		}
		if uint64(len(img.Bwd)) != img.NEdges {
			return fmt.Errorf("snap: %d backward triples do not match %d edges", len(img.Bwd), img.NEdges)
		}
	} else {
		if len(img.In) != 0 {
			return fmt.Errorf("snap: in partitions present but In direction not declared")
		}
		if img.Bwd != nil {
			return fmt.Errorf("snap: backward triples present but In direction not declared")
		}
	}
	for d, parts := range [][]PartImage{img.Out, img.In} {
		name := [2]string{"out", "in"}[d]
		for i := range parts {
			if err := checkPart(&parts[i], img.NRows); err != nil {
				return fmt.Errorf("snap: %s partition %d: %w", name, i, err)
			}
		}
	}
	return nil
}

// checkPart enforces one partition's DCSC shape contract in O(columns):
// checkPartShape's O(1) length checks plus CP monotonicity.
func checkPart(p *PartImage, nrows uint32) error {
	if err := checkPartShape(p, nrows); err != nil {
		return err
	}
	for i := 1; i < len(p.CP); i++ {
		if p.CP[i] < p.CP[i-1] {
			return fmt.Errorf("CP not monotone at column %d (%d < %d)", i, p.CP[i], p.CP[i-1])
		}
	}
	return nil
}

// secData pairs a section's identity with its payload bytes.
type secData struct {
	kind, dir, part, elem uint32
	data                  []byte
}

// sections enumerates the image's non-empty arrays in canonical order. The
// payload slices alias the image's arrays (no copies): callers must finish
// with them before mutating the image.
func (img *Image) sections() []secData {
	var out []secData
	add := func(kind, dir, part, elem uint32, data []byte) {
		if len(data) == 0 {
			return
		}
		out = append(out, secData{kind: kind, dir: dir, part: part, elem: elem, data: data})
	}
	add(secFwd, dirNone, 0, tripleSize, tripleBytes(img.Fwd))
	add(secBwd, dirNone, 0, tripleSize, tripleBytes(img.Bwd))
	add(secOutDeg, dirNone, 0, 4, u32Bytes(img.OutDeg))
	add(secInDeg, dirNone, 0, 4, u32Bytes(img.InDeg))
	for d, parts := range [][]PartImage{img.Out, img.In} {
		dir := [2]uint32{dirOut, dirIn}[d]
		if len(parts) == 0 {
			continue
		}
		meta := make([]uint32, 0, metaWords*len(parts))
		for i := range parts {
			p := &parts[i]
			meta = append(meta, p.RowLo, p.RowHi, p.AuxShift, 0)
		}
		add(secPartMeta, dir, 0, 4, u32Bytes(meta))
		for i := range parts {
			p := &parts[i]
			add(secJC, dir, uint32(i), 4, u32Bytes(p.JC))
			add(secCP, dir, uint32(i), 4, u32Bytes(p.CP))
			add(secIR, dir, uint32(i), 4, u32Bytes(p.IR))
			add(secVal, dir, uint32(i), 4, f32Bytes(p.Val))
			add(secAux, dir, uint32(i), 4, u32Bytes(p.Aux))
		}
	}
	return out
}

// ---- raw byte views ----------------------------------------------------
//
// The writer and the reader reinterpret the same memory through these
// pairs, so the on-disk bytes are exactly the in-memory arrays (host byte
// order; see the package comment).

func u32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func f32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func tripleBytes(s []sparse.Triple[float32]) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), tripleSize*len(s))
}

func viewU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewF32(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewTriples(b []byte) []sparse.Triple[float32] {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*sparse.Triple[float32])(unsafe.Pointer(&b[0])), len(b)/tripleSize)
}
