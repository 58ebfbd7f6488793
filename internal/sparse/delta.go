package sparse

// This file is the overlay half of the versioned storage layer: a DCSC
// partition plus an optional delta DCSC of whole-column overrides, built from
// batched edge mutations. The delta granularity is the column, not the entry:
// a column present in the delta carries the *entire live content* of that
// column (base entries merged with inserts, minus deletes), so a kernel that
// reaches a column reads it from exactly one layer and folds its rows in the
// same ascending order a from-scratch build would — which is what keeps
// results on an overlay bit-identical to a fresh build of the same edge set.
// A column stored in the delta with zero entries is a tombstone: it masks a
// base column whose every edge was deleted.

// Mut is one edge mutation against a matrix: an upsert (Del false) or a
// delete (Del true) of entry (Row, Col).
type Mut[E any] struct {
	Row, Col uint32
	Val      E
	Del      bool
}

// Layered is one row partition of a versioned matrix: the immutable base
// DCSC plus an optional delta DCSC of whole-column overrides. A nil Delta
// means the partition has no pending mutations.
type Layered[E any] struct {
	Base  *DCSC[E]
	Delta *DCSC[E]
}

// LiveNNZ returns the partition's live nonzero count under the overlay.
func (l Layered[E]) LiveNNZ() int {
	if l.Delta == nil {
		return l.Base.NNZ()
	}
	nnz := l.Base.NNZ() + l.Delta.NNZ()
	for _, j := range l.Delta.JC {
		if bi, ok := l.Base.FindColumn(j); ok {
			nnz -= int(l.Base.CP[bi+1] - l.Base.CP[bi])
		}
	}
	return nnz
}

// LiveNZColumns returns the number of columns with at least one live nonzero.
func (l Layered[E]) LiveNZColumns() int {
	if l.Delta == nil {
		return l.Base.NZColumns()
	}
	cols := l.Base.NZColumns()
	for ci, j := range l.Delta.JC {
		nonEmpty := l.Delta.CP[ci+1] > l.Delta.CP[ci]
		_, inBase := l.Base.FindColumn(j)
		switch {
		case inBase && !nonEmpty:
			cols--
		case !inBase && nonEmpty:
			cols++
		}
	}
	return cols
}

// Column returns the live rows and values of column col: the delta override
// when one exists (it is authoritative, possibly empty), the base column
// otherwise.
func (l Layered[E]) Column(col uint32) ([]uint32, []E) {
	if l.Delta != nil {
		if ci, ok := l.Delta.FindColumn(col); ok {
			s, e := l.Delta.CP[ci], l.Delta.CP[ci+1]
			return l.Delta.IR[s:e], l.Delta.Val[s:e]
		}
	}
	return l.Base.Column(col)
}

// Iterate calls fn(row, col, val) for every live nonzero in column-major
// order — the same visit order a fresh DCSC build of the live edge set
// would produce.
func (l Layered[E]) Iterate(fn func(row, col uint32, val E)) {
	if l.Delta == nil {
		l.Base.Iterate(fn)
		return
	}
	b, d := l.Base, l.Delta
	bi, di := 0, 0
	for bi < len(b.JC) || di < len(d.JC) {
		if di >= len(d.JC) || (bi < len(b.JC) && b.JC[bi] < d.JC[di]) {
			col := b.JC[bi]
			for k := b.CP[bi]; k < b.CP[bi+1]; k++ {
				fn(b.IR[k], col, b.Val[k])
			}
			bi++
			continue
		}
		col := d.JC[di]
		if bi < len(b.JC) && b.JC[bi] == col {
			bi++ // base column overridden
		}
		for k := d.CP[di]; k < d.CP[di+1]; k++ {
			fn(d.IR[k], col, d.Val[k])
		}
		di++
	}
}

// Assemble builds a DCSC directly from pre-constructed arrays and indexes it
// with AUX. Unlike BuildDCSC it permits empty columns (CP[i] == CP[i+1]),
// which delta overlays use as column tombstones.
func Assemble[E any](nrows, ncols, rowLo, rowHi uint32, jc, cp, ir []uint32, val []E) *DCSC[E] {
	m := &DCSC[E]{NRows: nrows, NCols: ncols, RowLo: rowLo, RowHi: rowHi, JC: jc, CP: cp, IR: ir, Val: val}
	m.buildAux()
	return m
}

// MergeDelta builds the partition's next delta from the previous one and a
// batch of mutations. muts must be column-major sorted with at most one
// mutation per (row, col) key — the last write of a batch, pre-deduplicated
// by the caller — and restricted to the partition's row range. For every
// touched column the new delta stores the full live column (prior content
// merged with the mutations, where the prior content is the old override if
// one exists, the base column otherwise); untouched old overrides carry over
// unchanged. Returns old (possibly nil) when muts is empty, and nil when the
// merge leaves no overrides.
func MergeDelta[E any](base, old *DCSC[E], muts []Mut[E]) *DCSC[E] {
	if len(muts) == 0 {
		return old
	}
	var oldJC []uint32
	if old != nil {
		oldJC = old.JC
	}
	var jc, cp, ir []uint32
	var val []E
	emit := func(col uint32, rows []uint32, vals []E) {
		jc = append(jc, col)
		cp = append(cp, uint32(len(ir)))
		ir = append(ir, rows...)
		val = append(val, vals...)
	}
	oi := 0
	for mi := 0; mi < len(muts); {
		j := muts[mi].Col
		me := mi
		for me < len(muts) && muts[me].Col == j {
			me++
		}
		// Old overrides below the touched column carry over as-is.
		for oi < len(oldJC) && oldJC[oi] < j {
			s, e := old.CP[oi], old.CP[oi+1]
			emit(oldJC[oi], old.IR[s:e], old.Val[s:e])
			oi++
		}
		// Prior content of the touched column, plus whether the base stores
		// it (an emptied column must stay as a tombstone only if it masks
		// something).
		var prow []uint32
		var pval []E
		_, baseHas := base.FindColumn(j)
		if oi < len(oldJC) && oldJC[oi] == j {
			s, e := old.CP[oi], old.CP[oi+1]
			prow, pval = old.IR[s:e], old.Val[s:e]
			oi++
		} else if baseHas {
			prow, pval = base.Column(j)
		}
		// Merge prior rows with the mutation group, both ascending by row.
		rows := make([]uint32, 0, len(prow)+(me-mi))
		vals := make([]E, 0, len(prow)+(me-mi))
		pi := 0
		for k := mi; k < me; k++ {
			mrow := muts[k].Row
			for pi < len(prow) && prow[pi] < mrow {
				rows = append(rows, prow[pi])
				vals = append(vals, pval[pi])
				pi++
			}
			if pi < len(prow) && prow[pi] == mrow {
				pi++
			}
			if !muts[k].Del {
				rows = append(rows, mrow)
				vals = append(vals, muts[k].Val)
			}
		}
		rows = append(rows, prow[pi:]...)
		vals = append(vals, pval[pi:]...)
		if len(rows) > 0 || baseHas {
			emit(j, rows, vals)
		}
		mi = me
	}
	for ; oi < len(oldJC); oi++ {
		s, e := old.CP[oi], old.CP[oi+1]
		emit(oldJC[oi], old.IR[s:e], old.Val[s:e])
	}
	if len(jc) == 0 {
		return nil
	}
	cp = append(cp, uint32(len(ir)))
	return Assemble(base.NRows, base.NCols, base.RowLo, base.RowHi, jc, cp, ir, val)
}

// OverheadNNZ is the overlay's storage cost in entries: stored nonzeros plus
// one per override column (the JC/CP slot). Compaction policies compare it
// against the base structure's size.
func OverheadNNZ[E any](deltas []*DCSC[E]) int64 {
	var n int64
	for _, d := range deltas {
		if d != nil {
			n += int64(d.NNZ() + d.NZColumns())
		}
	}
	return n
}
