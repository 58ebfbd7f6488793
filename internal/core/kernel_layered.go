package core

import (
	"graphmat/internal/kernels"
	"graphmat/internal/sparse"
)

// This file is the overlay half of the kernel layer: how the pull and push
// kernels (scalar and block alike) walk a Layered partition — an immutable
// base DCSC plus an optional delta DCSC of whole-column overrides carrying
// live edge updates. The invariants are the ones a fresh build of the live
// edge set would give:
//
//  1. columns are visited in ascending column id, merged across the two
//     layers, with a delta override replacing (never joining) its base
//     column — so the per-destination Reduce fold order equals what a
//     from-scratch build would produce, and results on an overlay are
//     bit-identical to a fresh build;
//  2. an override with zero entries is a tombstone: it masks its base column
//     and is neither probed nor counted, matching the fresh build in which
//     the column simply does not exist;
//  3. the partition's disjoint 64-aligned output row range is untouched —
//     deltas cover the same row range as their base, so row-bounded
//     (sub-partition) tasks apply their bounds to both layers alike.
//
// A nil Delta is the degenerate overlay: one run over the whole base, and a
// push lookup that goes straight to the base's AUX index.

// liveRuns walks an overlay partition's live columns in ascending id as
// maximal runs of one layer: each step yields either the run of base
// columns below the next delta column — found with one arch-dispatched
// SpanLess scan instead of a per-column two-pointer compare — or one live
// delta column. Overridden base columns and tombstones are skipped. Vertex
// ids top out at 2³²−2 (the graph caps vertices at 2³²−1), so the merge
// never needs a sentinel column id.
type liveRuns[E any] struct {
	base, delta *sparse.DCSC[E]
	bi, di      int
}

// next returns the next run: columns [from, to) of layer d. ok is false once
// the partition is exhausted.
func (r *liveRuns[E]) next() (d *sparse.DCSC[E], from, to int, ok bool) {
	bjc, bi, di := r.base.JC, r.bi, r.di
	var djc, dcp []uint32
	if r.delta != nil {
		djc, dcp = r.delta.JC, r.delta.CP
	}
	for di < len(djc) {
		j := djc[di]
		if end := bi + kernels.SpanLess(bjc[bi:], j); end > bi {
			r.bi = end
			return r.base, bi, end, true
		}
		if bi < len(bjc) && bjc[bi] == j {
			bi++ // base column overridden
		}
		di++
		if dcp[di-1] != dcp[di] {
			r.bi, r.di = bi, di
			return r.delta, di - 1, di, true
		}
		// Tombstone: not a live column, not a probe.
	}
	r.bi, r.di = len(bjc), di
	if bi < len(bjc) {
		return r.base, bi, len(bjc), true
	}
	return nil, 0, 0, false
}

// liveColumn resolves column j of an overlay for the block push kernel: the
// delta override when present (authoritative; a tombstone reports ok=false),
// the base column otherwise. Both lookups ride the AUX index, so the probe
// stays ~O(1) whichever layer owns the column.
func liveColumn[E any](base, delta *sparse.DCSC[E], j uint32) (d *sparse.DCSC[E], ci int, ok bool) {
	if delta != nil {
		if ci, ok := delta.FindColumn(j); ok {
			return delta, ci, delta.CP[ci] != delta.CP[ci+1]
		}
	}
	ci, ok = base.FindColumn(j)
	return base, ci, ok
}

// frontierWords returns the range [lo, hi) of frontier words (of nwords)
// overlapping either layer's stored column range — the only words a push
// kernel can match. The range is empty for a partition with no columns.
func frontierWords[E any](l sparse.Layered[E], nwords int) (lo, hi int) {
	loCol, hiCol := ^uint32(0), uint32(0)
	for _, d := range [2]*sparse.DCSC[E]{l.Base, l.Delta} {
		if d != nil && len(d.JC) > 0 {
			loCol = min(loCol, d.JC[0])
			hiCol = max(hiCol, d.JC[len(d.JC)-1])
		}
	}
	if loCol > hiCol {
		return 0, 0
	}
	return int(loCol >> 6), min(int(hiCol>>6)+1, nwords)
}

// AddLayers folds a layered partition set into the Auto cost model using the
// LIVE quantities — the edge and column counts the kernels will actually
// see, not the base's.
func AddLayers[E any](c KernelCosts, layers []sparse.Layered[E]) KernelCosts {
	for _, l := range layers {
		c.TotalEdges += int64(l.LiveNNZ())
		c.TotalNZCols += int64(l.LiveNZColumns())
	}
	c.Partitions += len(layers)
	return c
}
