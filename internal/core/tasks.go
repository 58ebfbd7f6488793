package core

import "graphmat/internal/sparse"

// This file is the nnz-weighted task-shaping half of the scheduler work:
// turning a run's partition list into multiply-phase task lists whose units
// carry roughly equal edge work, so one hub-heavy partition no longer
// serializes a pull superstep while the other workers idle.
//
// Shaping preserves the engine's bit-identity contract. A partition is only
// ever split by destination row, on 64-aligned boundaries: each output row
// (and each output mask word) belongs to exactly one task, so tasks still
// write disjoint ranges of y without synchronization, and within a task the
// kernels visit columns in ascending id with each destination's fold order
// unchanged — only task *boundaries* move, never the per-destination fold
// sequence. (Splitting by column range instead would both race on shared
// destination rows and recombine partial folds, which float reduction
// orders forbid.)

// spmvTask is one unit of multiply-phase work: a partition (by layer
// index) and a destination-row range. Whole-partition tasks use the full
// range sentinel rlo=0, rhi=^uint32(0).
type spmvTask struct {
	layer    int32
	rlo, rhi uint32
}

// taskPlan is one direction's precomputed multiply-phase task lists.
type taskPlan struct {
	// whole is partition-granular: one task per layer, in layer order.
	whole []spmvTask
	// shaped is the nnz-weighted list: heavy partitions are split into
	// 64-aligned destination-row sub-ranges of roughly equal live-edge
	// weight; light partitions stay whole.
	shaped []spmvTask
}

const (
	// shapeTasksPerWorker sets the shaping target: about this many tasks
	// per worker, enough slack for stealing to absorb skew without
	// shattering the sweep into cache-hostile crumbs.
	shapeTasksPerWorker = 4
	// shapeMinGrain floors the per-task edge weight: below this the extra
	// dispatch and per-column row search cost more than the imbalance
	// they could fix.
	shapeMinGrain = 4096
	// shapeMaxSplit caps the sub-tasks cut from one partition.
	shapeMaxSplit = 64
	// shapeSweepCost is the column-sweep budget divisor: a partition with
	// c live columns and w live edges splits at most w/(shapeSweepCost·c)
	// ways, charging each added sub-task for the per-column probe it
	// re-pays across the whole column list.
	shapeSweepCost = 4
)

// shapeTasks builds the task plan for one direction's layers. The grain is
// total live edge weight over workers × shapeTasksPerWorker (floored at
// shapeMinGrain); partitions above twice the grain are split at
// destination-row boundaries chosen by per-row nnz weight — the same
// balance-and-64-align cut PartitionRows applies at build time, here at
// sub-partition scale. Partitions with a delta overlay split like the rest:
// the cut is computed on the base's row weights (the overlay is a small
// fraction of a partition between compactions), and the pull kernels apply
// the row bounds to both layers.
//
// The plan depends only on the pinned structures and the run config, so
// repeated runs shape identically — engine tallies that count per-task
// sweeps (ColumnsProbed) stay deterministic per configuration.
func shapeTasks[E any](layers []sparse.Layered[E], workers int, rt Runtime) taskPlan {
	plan := taskPlan{whole: make([]spmvTask, len(layers))}
	for i := range plan.whole {
		plan.whole[i] = spmvTask{layer: int32(i), rhi: ^uint32(0)}
	}
	plan.shaped = plan.whole
	if rt != Pooled || workers <= 1 || len(layers) == 0 {
		return plan
	}
	total := 0
	for _, l := range layers {
		total += l.LiveNNZ()
	}
	grain := total / (workers * shapeTasksPerWorker)
	if grain < shapeMinGrain {
		grain = shapeMinGrain
	}
	shaped := make([]spmvTask, 0, len(layers))
	split := false
	for i, l := range layers {
		w := l.LiveNNZ()
		if w <= 2*grain {
			shaped = append(shaped, plan.whole[i])
			continue
		}
		part := l.Base
		s := w / grain
		if s > shapeMaxSplit {
			s = shapeMaxSplit
		}
		// Every sub-task re-sweeps the partition's whole live-column list —
		// a frontier probe and a row-range check per column — so splitting
		// an s-way partition adds (s-1)·NZColumns sweep steps on top of the
		// unchanged edge work. Cap s so that bill stays a small fraction of
		// the edge work it buys balance for: column-rich hypersparse
		// partitions (few edges per live column) stay coarse, edge-dense
		// ones split freely.
		if c := l.LiveNZColumns(); c > 0 && s > w/(shapeSweepCost*c) {
			s = w / (shapeSweepCost * c)
		}
		// 64-aligned boundaries bound the useful split count: sub-ranges
		// share no output mask words only at that granularity.
		if rows := int(part.RowHi-part.RowLo) / 64; s > rows {
			s = rows
		}
		if s < 2 {
			shaped = append(shaped, plan.whole[i])
			continue
		}
		bounds := part.SplitBounds(s)
		for b := 0; b < s; b++ {
			lo, hi := bounds[b], bounds[b+1]
			if lo >= hi {
				continue
			}
			shaped = append(shaped, spmvTask{layer: int32(i), rlo: lo, rhi: hi})
			split = true
		}
	}
	if split {
		plan.shaped = shaped
	}
	return plan
}

// pick selects one superstep's task list. Shaped tasks serve pull
// supersteps over the bitvector frontier: the column-sweep bill is fixed,
// so cutting heavy partitions buys balance for a cheap per-column row
// search. Push supersteps stay partition-granular — push work is
// frontier-proportional, and splitting would multiply the
// per-frontier-vertex probe bill by the split factor (the adaptive-grain
// rule: sparse-frontier supersteps must not shatter).
func (tp *taskPlan) pick(mode Mode) []spmvTask {
	if mode == Push {
		return tp.whole
	}
	return tp.shaped
}
