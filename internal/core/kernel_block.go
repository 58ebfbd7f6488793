package core

import (
	"math/bits"

	"graphmat/internal/kernels"
	"graphmat/internal/sparse"
)

// This file is the multi-source half of the kernel layer: the generalized
// sparse matrix–sparse MATRIX multiplication (SpMM) over n×k block vectors —
// one sweep of the adjacency structure advancing up to 64 source columns at
// once, in pull (spmmPull, column probe) and push (spmmPush, frontier-driven
// SpMSpV) directions, over the same Layered partitions and overlay walk as
// the scalar kernels. The point of the widening is amortization: the column
// probes and edge-list walks that dominate a scalar superstep are paid once
// per edge instead of once per (edge, source).
//
// The scalar kernels' invariants carry over per column:
//
//  1. partitions own disjoint 64-aligned output row ranges — no
//     synchronization on the output block;
//  2. columns of the adjacency structure are visited in ascending id in
//     every mode, and within one destination the per-source fold order
//     follows the same edge order the scalar kernels use — so for each
//     source s, a block run folds exactly the values, in exactly the order,
//     of a scalar run from that source alone. That is the bit-identity
//     contract the differential suite asserts.
//
// The fold uses the BlockProgram's Semiring half (Mul/Add): Mul has no
// destination parameter, which is what makes sharing one edge traversal
// across k columns sound. First writes store the raw Mul result under a mask
// bit, exactly like the scalar fold — Identity() is never fed to Add.

// foldBlockColumn folds one adjacency column into the output block for every
// source in cm: per edge, one Mul per live source column, Add on collisions.
// xrow is the sender's k-wide message row; irc/vc the column's edge targets
// and values.
func foldBlockColumn[V, E, M, R any, P BlockProgram[V, E, M, R]](
	p P, k int, cm uint64, xrow []M, irc []uint32, vc []E,
	ysw []uint64, ycols []uint64, yvals []R,
) {
	for kk, dst := range irc {
		e := vc[kk]
		w := &ysw[dst>>6]
		bit := uint64(1) << (dst & 63)
		if *w&bit == 0 {
			*w |= bit
			ycols[dst] = 0
		}
		ym := ycols[dst]
		yrow := yvals[int(dst)*k : int(dst)*k+k]
		for m := cm; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			r := p.Mul(xrow[s], e)
			if ym&(1<<uint(s)) != 0 {
				yrow[s] = p.Add(yrow[s], r)
			} else {
				yrow[s] = r
				ym |= 1 << uint(s)
			}
		}
		ycols[dst] = ym
	}
}

// spmmView is one block kernel call's resolved operands, looked up once per
// call: the frontier and output blocks and the fused-fold views.
type spmmView[V, E, M, R any, P BlockProgram[V, E, M, R]] struct {
	p             P
	k             int
	xw, xcols     []uint64
	xvals         []M
	ysw, ycols    []uint64
	yvals         []R
	xf, yf        []float64
	sumOK         bool
	fk            f32FoldKind
	xg, yg        []float32
	wBase, wDelta []float32
}

func newSpmmView[V, E, M, R any, P BlockProgram[V, E, M, R]](
	l sparse.Layered[E], x *BlockVector[M], p P, y *BlockVector[R],
) spmmView[V, E, M, R, P] {
	v := spmmView[V, E, M, R, P]{
		p: p, k: x.k,
		xw: x.summary.Words(), xcols: x.cols, xvals: x.vals,
		ysw: y.summary.Words(), ycols: y.cols, yvals: y.vals,
	}
	v.xf, v.yf, v.sumOK = sumFoldBlockView(p, x, y)
	v.fk, v.xg, v.yg = f32FoldBlockView(p, x, y)
	if v.fk != f32FoldNone {
		var ok bool
		if v.wBase, ok = any(l.Base.Val).([]float32); !ok {
			v.fk = f32FoldNone
		} else if l.Delta != nil {
			v.wDelta = any(l.Delta.Val).([]float32)
		}
	}
	return v
}

// fold folds edges [lo, hi) of one adjacency column j into the output block
// for every source in cm, through the fused float32 or float64 lane fold
// when the program qualifies, the generic Mul/Add loop otherwise.
func (v *spmmView[V, E, M, R, P]) fold(j uint32, cm uint64, ir []uint32, vals []E, w []float32, lo, hi uint32) {
	k := v.k
	row := int(j) * k
	switch {
	case v.fk != f32FoldNone:
		foldBlockColumnF32(v.fk, k, cm, v.xg[row:row+k], ir[lo:hi], w[lo:hi:hi], v.ysw, v.ycols, v.yg)
	case v.sumOK:
		foldBlockColumnSumF64(k, cm, v.xf[row:row+k], ir[lo:hi], v.ysw, v.ycols, v.yf)
	default:
		foldBlockColumn(v.p, k, cm, v.xvals[row:row+k], ir[lo:hi], vals[lo:hi:hi], v.ysw, v.ycols, v.yvals)
	}
}

// spmmPull is spmvPull widened to k columns: traverse the partition's live
// columns in ascending id (the same overlay run merge), probe the block
// frontier's summary bit, and fold each edge once per live source column.
// rlo/rhi bound the destination rows (the scheduler's nnz-weighted
// sub-partition tasks), exactly as in spmvPull.
func spmmPull[V, E, M, R any, P BlockProgram[V, E, M, R]](
	l sparse.Layered[E],
	x *BlockVector[M],
	p P,
	y *BlockVector[R],
	st *localStats,
	rlo, rhi uint32,
) {
	v := newSpmmView(l, x, p, y)
	bounded := rlo > l.Base.RowLo || rhi < l.Base.RowHi
	xw, xcols := v.xw, v.xcols
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
		jc, cp, ir := d.JC[from:to], d.CP[from:to+1], d.IR
		for ci, j := range jc {
			if xw[j>>6]&(1<<(j&63)) == 0 {
				continue
			}
			cm := xcols[j]
			if cm == 0 {
				continue
			}
			lo, hi := cp[ci], cp[ci+1]
			if bounded {
				if lo, hi = rowSpan(ir, lo, hi, rlo, rhi); lo == hi {
					continue
				}
			}
			edges += int64(hi-lo) * int64(bits.OnesCount64(cm))
			v.fold(j, cm, ir, d.Val, w, lo, hi)
		}
	}
	st.probes += probes
	st.edges += edges
}

// spmmPush is spmvPush widened to k columns: iterate the block frontier's
// summary in ascending vertex order and resolve each sender's column
// delta-first through the AUX indexes, folding each found column once per
// live source column. Like spmvPush it always runs whole partitions.
func spmmPush[V, E, M, R any, P BlockProgram[V, E, M, R]](
	l sparse.Layered[E],
	x *BlockVector[M],
	p P,
	y *BlockVector[R],
	st *localStats,
) {
	v := newSpmmView(l, x, p, y)
	xw, xcols := v.xw, v.xcols
	probes, edges := int64(0), int64(0)
	loW, hiW := frontierWords(l, len(xw))
	for wi := loW; wi < hiW; wi++ {
		wd := xw[wi]
		if wd == 0 {
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
			cm := xcols[j]
			if cm == 0 {
				continue
			}
			probes++
			d, ci, ok := liveColumn(l.Base, l.Delta, j)
			if !ok {
				continue
			}
			w := v.wBase
			if d != l.Base {
				w = v.wDelta
			}
			lo, hi := d.CP[ci], d.CP[ci+1]
			edges += int64(hi-lo) * int64(bits.OnesCount64(cm))
			v.fold(j, cm, d.IR, d.Val, w, lo, hi)
		}
	}
	st.probes += probes
	st.edges += edges
}
