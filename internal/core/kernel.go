package core

import (
	"math/bits"

	"graphmat/internal/kernels"
	"graphmat/internal/sparse"
)

// This file is the kernel-backend layer: the generalized sparse
// matrix–sparse vector multiplication of Algorithm 1 in two directions —
// the paper's column-driven pull probe (spmvPull) and a frontier-driven push
// SpMSpV (spmvPush) — plus the per-superstep adaptive choice between them
// (GraphBLAST/Ligra-style direction optimization). Both kernels take one
// row partition as a sparse.Layered: the immutable base DCSC plus an
// optional delta overlay of whole-column overrides (see kernel_layered.go).
// A nil Delta is simply the one-run case of the overlay merge. Every kernel
// preserves two invariants the engine depends on:
//
//  1. the partition owns a disjoint 64-aligned output row range, so writes
//     to y's mask words and values need no synchronization;
//  2. live columns are processed in ascending column id within the
//     partition, so Reduce folds in an identical order in every mode and all
//     modes — on an overlay or on a fresh build of the same edges — produce
//     bit-identical results.
//
// The kernels are generic: the compiler monomorphizes them per program
// type, inlining the user callbacks into the inner loop — the
// reproduction's analogue of compiling the C++ with -ipo (§4.5 item 2).

// spmvView is one scalar kernel call's resolved operands: the frontier and
// output words and values, and the fused-fold views, looked up once per call
// rather than once per column.
type spmvView[V, E, M, R any, P Program[V, E, M, R]] struct {
	p       P
	props   []V
	xw, yw  []uint64
	xvals   []M
	yvals   []R
	dstFree bool
	sf      sumFoldF64
	// ff is the float32 path-semiring fold; its kind is f32FoldNone unless
	// the edge values are float32 too, in which case wBase/wDelta are the
	// two layers' weights.
	ff            f32Fold
	wBase, wDelta []float32
}

func newSpmvView[V, E, M, R any, P Program[V, E, M, R]](
	l sparse.Layered[E], x *sparse.Vector[M], props []V, p P, y *sparse.Vector[R],
) spmvView[V, E, M, R, P] {
	v := spmvView[V, E, M, R, P]{
		p: p, props: props,
		xw: x.Mask().Words(), xvals: x.Values(),
		yw: y.Mask().Words(), yvals: y.Values(),
		sf: sumFoldScalarView(p, x, y),
		ff: f32FoldScalarView(p, x, y),
	}
	_, v.dstFree = any(p).(DstIndependent)
	if v.ff.kind != f32FoldNone {
		var ok bool
		if v.wBase, ok = any(l.Base.Val).([]float32); !ok {
			v.ff.kind = f32FoldNone
		} else if l.Delta != nil {
			v.wDelta = any(l.Delta.Val).([]float32)
		}
	}
	return v
}

// spmvPull is Algorithm 1 of the paper: traverse the partition's live
// columns in ascending id, probe the message vector's bitvector for a
// message from each (line 4 — "becomes faster due to use of the
// bitvector"), and for every edge of a probed column compute ProcessMessage
// and fold into the output with Reduce. The overlay merge hands the body
// maximal runs of one layer's columns: without a delta that is a single run
// over the whole base, with one it alternates base runs and live delta
// columns.
//
// rlo/rhi bound the destination rows this call folds (the scheduler's
// nnz-weighted sub-partition tasks); the whole-partition sentinel is
// rlo=0, rhi=^uint32(0). Rows ascend within each column, so a bounded call
// takes a contiguous sub-run per column — per-destination fold order is
// exactly the unbounded call's.
func spmvPull[V, E, M, R any, P Program[V, E, M, R]](
	l sparse.Layered[E],
	x *sparse.Vector[M],
	props []V,
	p P,
	y *sparse.Vector[R],
	st *localStats,
	rlo, rhi uint32,
) {
	v := newSpmvView(l, x, props, p, y)
	bounded := rlo > l.Base.RowLo || rhi < l.Base.RowHi
	runs := liveRuns[E]{base: l.Base, delta: l.Delta}
	probes, edges := int64(0), int64(0)
	for {
		d, from, to, ok := runs.next()
		if !ok {
			break
		}
		w := v.wBase
		if d != l.Base {
			w = v.wDelta
		}
		probes += int64(to - from)
		edges += v.pullRun(d, w, from, to, rlo, rhi, bounded)
	}
	st.probes += probes
	st.edges += edges
}

// pullRun is the pull kernel's body over columns [from, to) of one layer,
// returning the edges folded. The fold is chosen once per run: the fused
// (+, passthrough) float64 scatter-add, the fused float32 path-semiring
// scatter, or the generic ProcessMessage/Reduce loop.
func (v *spmvView[V, E, M, R, P]) pullRun(
	d *sparse.DCSC[E], w []float32, from, to int, rlo, rhi uint32, bounded bool,
) int64 {
	jc, cp, ir := d.JC[from:to], d.CP[from:to+1], d.IR
	switch {
	case v.sf.ok:
		return pullSumF64(jc, cp, ir, v.xw, v.yw, v.sf.x, v.sf.y, rlo, rhi, bounded)
	case v.ff.kind != f32FoldNone:
		return pullF32(&v.ff, jc, cp, ir, w, v.xw, v.yw, rlo, rhi, bounded)
	}
	xw, yw, vals := v.xw, v.yw, d.Val
	edges := int64(0)
	for ci, j := range jc {
		if xw[j>>6]&(1<<(j&63)) == 0 {
			continue
		}
		lo, hi := cp[ci], cp[ci+1]
		if bounded {
			if lo, hi = rowSpan(ir, lo, hi, rlo, rhi); lo == hi {
				continue
			}
		}
		edges += int64(hi - lo)
		foldColumn(v.p, v.xvals[j], ir[lo:hi], vals[lo:hi:hi], v.props, yw, v.yvals, v.dstFree)
	}
	return edges
}

// pullSumF64 is pullRun for (+, passthrough) float64 programs: the whole
// per-edge loop of a probed column is one arch-dispatched scatter-add. The
// fused bodies are plain functions, compiled once with their own small
// register footprint rather than per program type.
func pullSumF64(jc, cp, ir []uint32, xw, yw []uint64, x, y []float64, rlo, rhi uint32, bounded bool) int64 {
	edges := int64(0)
	for ci, j := range jc {
		if xw[j>>6]&(1<<(j&63)) == 0 {
			continue
		}
		lo, hi := cp[ci], cp[ci+1]
		if bounded {
			if lo, hi = rowSpan(ir, lo, hi, rlo, rhi); lo == hi {
				continue
			}
		}
		edges += int64(hi - lo)
		kernels.ScatterAddF64(yw, y, ir[lo:hi], x[j])
	}
	return edges
}

// pullF32 is pullRun for the float32 path semirings ((min,+) SSSP, (max,min)
// widest paths) over float32 edge weights w.
func pullF32(ff *f32Fold, jc, cp, ir []uint32, w []float32, xw, yw []uint64, rlo, rhi uint32, bounded bool) int64 {
	edges := int64(0)
	for ci, j := range jc {
		if xw[j>>6]&(1<<(j&63)) == 0 {
			continue
		}
		lo, hi := cp[ci], cp[ci+1]
		if bounded {
			if lo, hi = rowSpan(ir, lo, hi, rlo, rhi); lo == hi {
				continue
			}
		}
		edges += int64(hi - lo)
		ff.scatter(yw, ir[lo:hi], w[lo:hi:hi], ff.x[j])
	}
	return edges
}

// spmvPush is the frontier-driven dual of spmvPull — a true SpMSpV: iterate
// the message vector's nonzeros in ascending index order (the frontier) and
// look each up in the partition instead of probing every stored column: the
// delta overlay first (an empty override is a tombstone), then the base's
// AUX column index. Work is proportional to |frontier| × O(1) lookups plus
// the frontier's edges, not to the partition's nonzero column count, which
// is what makes a 10-vertex BFS frontier cheap on a scale-18 graph. Columns
// are still visited in ascending id, so the Reduce fold order — and
// therefore the result — is bit-identical to the pull kernel's.
//
// Push always runs whole partitions: its work is frontier-proportional, so
// the scheduler never row-splits it (see taskPlan.pick).
func spmvPush[V, E, M, R any, P Program[V, E, M, R]](
	l sparse.Layered[E],
	x *sparse.Vector[M],
	props []V,
	p P,
	y *sparse.Vector[R],
	st *localStats,
) {
	v := newSpmvView(l, x, props, p, y)
	base, delta := l.Base, l.Delta
	bjc, bcp, bir, bvals := base.JC, base.CP, base.IR, base.Val
	aux, shift := base.Aux, base.AuxShift
	xw, yw := v.xw, v.yw
	probes, edges := int64(0), int64(0)
	// Only frontier words overlapping the partition's stored column range
	// can match; everything outside is skipped wholesale.
	loW, hiW := frontierWords(l, len(xw))
	for wi := loW; wi < hiW; wi++ {
		wd := xw[wi]
		if wd == 0 {
			// Vectorized scan to the next frontier word: sparse frontiers
			// spread over a wide id range skip the zero run in one sweep.
			skip := kernels.FirstNonzero(xw[wi:hiW])
			if skip < 0 {
				break
			}
			wi += skip
			wd = xw[wi]
		}
		colBase := uint32(wi) << 6
		for wd != 0 {
			j := colBase + uint32(bits.TrailingZeros64(wd))
			wd &= wd - 1
			probes++
			cp, ir, vals, w := bcp, bir, bvals, v.wBase
			ci := -1
			if delta != nil {
				if dci, ok := delta.FindColumn(j); ok {
					if delta.CP[dci] == delta.CP[dci+1] {
						continue // tombstone
					}
					ci = dci
					cp, ir, vals, w = delta.CP, delta.IR, delta.Val, v.wDelta
				}
			}
			if ci < 0 {
				if len(bjc) == 0 {
					continue
				}
				// AUX lookup, hand-inlined: scan the one bucket that
				// could hold column j.
				b := j >> shift
				ci = int(aux[b])
				ciHi := int(aux[b+1])
				for ; ci < ciHi; ci++ {
					if bjc[ci] >= j {
						break
					}
				}
				if ci == ciHi || bjc[ci] != j {
					continue
				}
			}
			lo, hi := cp[ci], cp[ci+1]
			edges += int64(hi - lo)
			switch {
			case v.ff.kind != f32FoldNone:
				v.ff.scatter(yw, ir[lo:hi], w[lo:hi:hi], v.ff.x[j])
			case v.sf.ok:
				kernels.ScatterAddF64(yw, v.sf.y, ir[lo:hi], v.sf.x[j])
			default:
				foldColumn(v.p, v.xvals[j], ir[lo:hi], vals[lo:hi:hi], v.props, yw, v.yvals, v.dstFree)
			}
		}
	}
	st.probes += probes
	st.edges += edges
}

// foldColumn folds one live column into the output vector: ProcessMessage on
// every edge, Reduce on collisions — the generic inner loop of both scalar
// kernels. The bounds of irc/vc are established by the caller's subslicing.
func foldColumn[V, E, M, R any, P Program[V, E, M, R]](
	p P, m M, irc []uint32, vc []E, props []V, yw []uint64, yvals []R, dstFree bool,
) {
	if dstFree {
		// The program declared ProcessMessage ignores the destination
		// property: skip the per-edge random load of props[dst].
		var zeroV V
		for k, dst := range irc {
			r := p.ProcessMessage(m, vc[k], zeroV)
			w := &yw[dst>>6]
			bit := uint64(1) << (dst & 63)
			if *w&bit != 0 {
				yvals[dst] = p.Reduce(yvals[dst], r)
			} else {
				yvals[dst] = r
				*w |= bit
			}
		}
		return
	}
	for k, dst := range irc {
		r := p.ProcessMessage(m, vc[k], props[dst])
		w := &yw[dst>>6]
		bit := uint64(1) << (dst & 63)
		if *w&bit != 0 {
			yvals[dst] = p.Reduce(yvals[dst], r)
		} else {
			yvals[dst] = r
			*w |= bit
		}
	}
}

// rowSpan narrows one column's edge range [lo, hi) of ir — an ascending
// run of destination rows — to the rows in [rlo, rhi). Two binary searches,
// paid only by bounded (sub-partition) kernel tasks.
func rowSpan(ir []uint32, lo, hi, rlo, rhi uint32) (uint32, uint32) {
	// Endpoint fast paths: a bounded task checks every live column of its
	// partition, but each column intersects only the few tasks its row
	// extent spans — the disjoint and fully-contained cases resolve on two
	// loads, no search.
	if lo == hi || ir[lo] >= rhi || ir[hi-1] < rlo {
		return lo, lo
	}
	if ir[lo] >= rlo && ir[hi-1] < rhi {
		return lo, hi
	}
	a, b := lo, hi
	for a < b {
		mid := a + (b-a)/2
		if ir[mid] < rlo {
			a = mid + 1
		} else {
			b = mid
		}
	}
	first := a
	b = hi
	for a < b {
		mid := a + (b-a)/2
		if ir[mid] < rhi {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return first, a
}

// pushProbeCost is how many pull probes one push probe is worth in the Auto
// cost model. A pull probe is a sequential JC scan step with a bit test — a
// load and a branch the prefetcher hides; a push probe is an AUX bucket
// lookup with two dependent loads into per-partition arrays. Measured on
// RMAT and grid workloads the gap is 3–8×; 4 is the conservative midpoint
// (ties go to pull, whose worst case is bounded).
const pushProbeCost = 4

// KernelCosts carries the structure-side quantities of the Auto decision,
// computed once per run (they depend only on the traversal structures).
type KernelCosts struct {
	// TotalEdges is the stored nonzeros of the traversal structures — the
	// denominator of the Ligra-style edge-work rule.
	TotalEdges int64
	// TotalNZCols is the summed nonzero-column count over all partitions:
	// exactly the probe bill a pull superstep pays regardless of frontier
	// size.
	TotalNZCols int64
	// Partitions is the partition count: a push superstep pays one column
	// lookup per frontier vertex per partition.
	Partitions int
}

// Choose resolves a configured mode for one superstep. Pull and Push pass
// through. Auto pushes only when both sides of the cost model agree:
//
//  1. the Ligra-style edge-work rule — the frontier's outgoing edge work
//     (the degree sum of the sending vertices with respect to the traversal
//     structure) times the threshold fits within the structure's total edge
//     count, so the superstep is frontier-sparse;
//  2. the probe rule — the push kernel's lookup bill (frontier size ×
//     partitions, each lookup worth pushProbeCost pull probes) undercuts the
//     pull kernel's fixed per-superstep column-scan bill.
//
// Rule 1 keeps dense frontiers (PageRank, BFS's middle supersteps) on pull;
// rule 2 keeps mid-size frontiers on pull when per-vertex lookups across
// many partitions would cost more than one sequential sweep of the columns.
// threshold <= 0 means DefaultPushThreshold.
func (c KernelCosts) Choose(mode Mode, threshold float64, frontierSize, frontierEdges int64) Mode {
	if mode != Auto {
		return mode
	}
	if threshold <= 0 {
		threshold = DefaultPushThreshold
	}
	if float64(frontierEdges)*threshold > float64(c.TotalEdges) {
		return Pull
	}
	if frontierSize*int64(c.Partitions)*pushProbeCost > c.TotalNZCols {
		return Pull
	}
	return Push
}

// frontierWork sums the traversal-structure degrees of the frontier for the
// Auto decision. The engine accumulates this during the SendMessage phase
// instead (one add per sender); this helper serves the single-shot SpMV
// path, where the frontier arrives pre-built.
func frontierWork[M any](x *sparse.Vector[M], degs []uint32) int64 {
	var sum int64
	x.Mask().Iterate(func(v uint32) { sum += int64(degs[v]) })
	return sum
}
