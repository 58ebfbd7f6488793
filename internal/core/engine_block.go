package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"time"

	"graphmat/internal/graph"
	"graphmat/internal/sched"
	"graphmat/internal/sparse"
)

// This file is the multi-source BSP driver: the same three-phase superstep
// loop as runTyped — SendMessage, generalized multiply, Apply — widened to an
// n×k block of independent source columns sharing one traversal of the
// adjacency structure per superstep. Vertex state lives in a BlockState, not
// the graph, so a block run never disturbs the graph's scalar props/active
// and can share a pinned snapshot with scalar runs.
//
// Convergence is per column and structural: a source column whose vertices
// all go inactive simply stops contributing frontier bits, so it drops out of
// the sweep at zero cost while the remaining columns keep iterating. The run
// ends when no column has active vertices.

// RunBlock executes block program p over k source columns until every column
// converges or the iteration cap. It is RunBlockContext without a context.
func RunBlock[V, E, M, R any, P BlockProgram[V, E, M, R]](
	g *graph.Graph[V, E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R],
) (Stats, error) {
	return RunBlockContext[V, E, M, R, P](context.Background(), g, p, st, cfg, ws)
}

// RunBlockContext executes block program p on graph g over the k source
// columns of st, under ctx: the multi-source analogue of RunContext. st
// carries the per-(vertex, column) properties and active set — initialize
// per-column starting state there before the call; after it, extract
// per-column results with BlockState.Column. ws, when non-nil, is
// caller-managed scratch (must match g's vertex count and st's width); nil
// allocates fresh scratch.
//
// The block path always runs the optimized configuration: bitvector-style
// occupancy and inlined dispatch (Config.Vector and Config.Dispatch are
// ignored — the Sorted and Boxed ablation paths exist only scalar-side).
// Mode (Auto/Pull/Push), Threads, Schedule, MaxIterations, observers and
// cancellation behave exactly as in RunContext.
//
// When p's Semiring contract holds (see BlockProgram), the run's results are
// bit-identical per column to scalar runs of the same program from each
// column's starting state alone.
func RunBlockContext[V, E, M, R any, P BlockProgram[V, E, M, R]](
	ctx context.Context, g *graph.Graph[V, E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R], opts ...RunOption,
) (Stats, error) {
	cfg = cfg.withDefaults()
	n := int(g.NumVertices())
	if st == nil {
		return Stats{}, fmt.Errorf("core: block run requires a BlockState")
	}
	if st.n != n {
		return Stats{}, fmt.Errorf("core: block state sized for %d vertices, graph has %d", st.n, n)
	}
	k := st.k
	if ws == nil {
		ws = NewBlockWorkspace[M, R](n, k)
	} else if err := ws.Check(n, k); err != nil {
		return Stats{}, err
	}
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	ctrl, release := newController(ctx, ro)
	defer release()
	return runBlock(g, p, st, cfg, ws, ctrl)
}

func runBlock[V, E, M, R any, P BlockProgram[V, E, M, R]](
	g *graph.Graph[V, E], p P, bst *BlockState[V], cfg Config, ws *BlockWorkspace[M, R], ctrl *controller,
) (stats Stats, err error) {
	n := int(g.NumVertices())
	k := bst.k
	props := bst.props
	dir := p.Direction()

	var outLayers, inLayers []sparse.Layered[E]
	if dir&graph.Out != 0 {
		outLayers = g.OutLayers()
	}
	if dir&graph.In != 0 {
		inLayers = g.InLayers()
	}

	// Auto accounting, as in runTyped: per-sender degrees tallied during
	// SendMessage. A sender's edge work counts once per live column — the
	// block multiply really does fold each of its edges that many times.
	var autoDegs []uint32
	var costs KernelCosts
	if cfg.Mode == Auto {
		switch dir & graph.Both {
		case graph.Out:
			autoDegs = g.OutDegrees()
		case graph.In:
			autoDegs = g.InDegrees()
		default:
			outDegs, inDegs := g.OutDegrees(), g.InDegrees()
			autoDegs = make([]uint32, n)
			for v := range autoDegs {
				autoDegs[v] = outDegs[v] + inDegs[v]
			}
		}
		costs = AddLayers(AddLayers(costs, outLayers), inLayers)
	}

	x, y := ws.x, ws.y
	active, actCols := bst.summary, bst.active

	// Multiply-phase task plans, as in runTyped: nnz-weighted row-split
	// tasks for pull supersteps, partition-granular for push.
	outPlan := shapeTasks(outLayers, cfg.Threads, cfg.Runtime)
	inPlan := shapeTasks(inLayers, cfg.Threads, cfg.Runtime)

	var tally sched.Tally
	ex := cfg.exec(&tally)
	defer func() { stats.Sched = ex.schedStats() }()

	chunks := chunkBounds(n, cfg.Threads*4)
	nchunks := len(chunks) - 1
	locals := make([]localStats, cfg.Threads)

	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = math.MaxInt
	}
	stop := ctrl.flag()
	runStart := time.Now() //lint:graphmat bannedcalls one clock read per run, off the per-edge path

	stats.Reason = MaxIterations
	for iter := 0; iter < maxIter; iter++ {
		if r, ok := ctrl.stopped(); ok {
			stats.Reason = r
			return stats, r.err()
		}
		stepStart := time.Now() //lint:graphmat bannedcalls one clock read per superstep, off the per-edge path
		frontier := int64(active.Count())
		stats.ActiveSum += frontier
		stats.Iterations++

		// Phase 1: SendMessage per active (vertex, column) pair builds the
		// n×k message block. Chunks own disjoint 64-aligned vertex ranges, so
		// the block vector's lazy-zero writes need no synchronization.
		x.Reset()
		parallelFor(ex, nchunks, stop, func(c, w int) {
			st := &locals[w]
			active.IterateRange(chunks[c], chunks[c+1], func(v uint32) {
				am := actCols[v]
				for m := am; m != 0; m &= m - 1 {
					s := bits.TrailingZeros64(m)
					if msg, ok := p.SendMessage(v, props[int(v)*k+s]); ok {
						x.Set(v, s, msg)
						if autoDegs != nil {
							st.degSum += int64(autoDegs[v])
						}
					}
				}
			})
		})
		// Frontier sizes come off the message block's occupancy masks after
		// the phase — a popcount sweep instead of per-Set counters and a
		// per-vertex sentAny branch in the send loop.
		sendersN, sentN := x.Occupancy()
		sent, senders := int64(sentN), int64(sendersN)
		stats.MessagesSent += sent
		_, degSum := stats.absorb(locals)

		// The push probe bill scales with distinct sender vertices, not
		// (vertex, column) pairs — one AUX lookup serves all columns.
		stepMode := costs.Choose(cfg.Mode, cfg.PushThreshold, senders, degSum)

		var applies, nactive int64
		if sent > 0 {
			if stepMode == Push {
				stats.PushSupersteps++
			} else {
				stats.PullSupersteps++
			}
			// Phase 2: the SpMM, dispatched exactly like runTyped's SpMV.
			y.Reset()
			for di, layers := range [2][]sparse.Layered[E]{outLayers, inLayers} {
				if layers == nil {
					continue
				}
				plan := &outPlan
				if di == 1 {
					plan = &inPlan
				}
				tasks := plan.pick(stepMode)
				parallelFor(ex, len(tasks), stop, func(ti, w int) {
					t := tasks[ti]
					if stepMode == Push {
						spmmPush(layers[t.layer], x, p, y, &locals[w])
					} else {
						spmmPull(layers[t.layer], x, p, y, &locals[w], t.rlo, t.rhi)
					}
				})
			}
			if r, ok := ctrl.stopped(); ok {
				stats.absorb(locals)
				stats.Reason = r
				return stats, r.err()
			}

			// Phase 3: Apply per received (vertex, column) pair, rebuilding
			// the active block.
			active.Reset()
			parallelFor(ex, nchunks, stop, func(c, w int) {
				st := &locals[w]
				ysum := y.summary
				ycols := y.cols
				ysum.IterateRange(chunks[c], chunks[c+1], func(v uint32) {
					ym := ycols[v]
					yrow := y.vals[int(v)*k : int(v)*k+k]
					prow := props[int(v)*k : int(v)*k+k]
					var am uint64
					for m := ym; m != 0; m &= m - 1 {
						s := bits.TrailingZeros64(m)
						st.applies++
						if p.Apply(yrow[s], v, &prow[s]) {
							am |= 1 << uint(s)
						}
					}
					if am != 0 {
						active.Words()[v>>6] |= uint64(1) << (v & 63)
						actCols[v] = am
					}
				})
			})
			applies, _ = stats.absorb(locals)
			nactive = int64(active.Count())
		}
		if r, ok := ctrl.stopped(); ok {
			stats.Reason = r
			return stats, r.err()
		}
		if ctrl.observer != nil {
			err := ctrl.observer(IterationInfo{
				Iteration:  iter + 1,
				Active:     frontier,
				Sent:       sent,
				Applies:    applies,
				NextActive: nactive,
				Mode:       stepMode,
				Elapsed:    time.Since(stepStart), //lint:graphmat bannedcalls per-superstep stats, two reads per superstep
				Total:      time.Since(runStart),
			})
			if err != nil {
				stats.Reason = StoppedByObserver
				return stats, err
			}
		}
		if sent == 0 || nactive == 0 {
			stats.Reason = Converged
			break
		}
	}
	return stats, nil
}
