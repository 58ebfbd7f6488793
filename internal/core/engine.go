package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"graphmat/internal/graph"
	"graphmat/internal/sched"
	"graphmat/internal/sparse"
)

// Run executes program p on graph g until convergence or the configured
// iteration cap, returning run statistics. It implements Algorithm 2 of the
// paper: each superstep builds a sparse message vector from the active
// vertices (SendMessage), multiplies it against the partitioned adjacency
// structure with the generalized SpMV (ProcessMessage + Reduce, Algorithm 1),
// applies the reduced values (Apply), and activates the vertices whose state
// changed. The run mutates g's vertex properties and active set.
//
// Run is RunContext without a context: it cannot be canceled and the error
// is always nil. Callers that need cancellation, deadlines or per-superstep
// observation use RunContext.
func Run[V, E, M, R any, P Program[V, E, M, R]](g *graph.Graph[V, E], p P, cfg Config) (Stats, error) {
	return RunContext[V, E, M, R, P](context.Background(), g, p, cfg, nil)
}

// localStats is one worker's tally, padded to a cache line so workers never
// share one. Frontier-size counts (messages sent, distinct senders, next
// actives) are NOT tallied here: the occupancy masks already hold them, so
// the engines read them after each phase with one popcount word sweep
// (bitvec.Count through the kernels backend) instead of bumping a counter
// per Set in the hot loops.
type localStats struct {
	edges   int64
	probes  int64
	applies int64
	// degSum accumulates the traversal-structure degrees of the vertices
	// that sent a message — the frontier's edge work, the numerator of the
	// Auto push/pull decision. Only tallied when the run is in Auto mode.
	degSum int64
	_      [32]byte
}

func (s *Stats) absorb(locals []localStats) (applies, degSum int64) {
	for i := range locals {
		s.EdgesProcessed += locals[i].edges
		s.ColumnsProbed += locals[i].probes
		s.Applies += locals[i].applies
		applies += locals[i].applies
		degSum += locals[i].degSum
		locals[i] = localStats{}
	}
	return applies, degSum
}

// chunkBounds splits [0, n) into at most k contiguous chunks whose interior
// boundaries are 64-aligned, so concurrent writers of chunk-local bitvector
// ranges never share a word.
func chunkBounds(n, k int) []uint32 {
	if k < 1 {
		k = 1
	}
	step := (n + k - 1) / k
	step = (step + 63) &^ 63
	if step == 0 {
		step = 64
	}
	bounds := []uint32{0}
	for b := step; b < n; b += step {
		bounds = append(bounds, uint32(b))
	}
	bounds = append(bounds, uint32(n))
	return bounds
}

// execCfg carries one run's scheduling parameters into the phase dispatch
// helper: worker count, schedule, runtime selection, and the per-run tally
// the scheduler work is accounted to.
type execCfg struct {
	workers int
	sc      Schedule
	rt      Runtime
	tally   *sched.Tally
}

func (c Config) exec(t *sched.Tally) execCfg {
	return execCfg{workers: c.Threads, sc: c.Schedule, rt: c.Runtime, tally: t}
}

// schedStats converts a run tally into the Stats view.
func (ex execCfg) schedStats() SchedStats {
	s := SchedStats{Workers: ex.workers}
	if ex.tally != nil {
		s.Tasks = ex.tally.Tasks.Load()
		s.Steals = ex.tally.Steals.Load()
		s.BusyNS = ex.tally.BusyNS.Load()
	}
	return s
}

// parallelFor runs fn(task, worker) over tasks [0, ntasks) on up to
// ex.workers executors. Under the Pooled runtime (default) the tasks go to
// the persistent shared worker pool — parked workers are woken instead of
// spawned, with Dynamic runs rebalanced by work stealing and Static runs
// pinned to their initial contiguous spans; PerCall keeps the legacy
// goroutine fan-out. stop, when non-nil, is polled before each task under
// either runtime: once it goes nonzero the remaining tasks are abandoned,
// which is how a cancellation aborts a multi-second SpMV without waiting
// for the superstep to finish.
func parallelFor(ex execCfg, ntasks int, stop *atomic.Int32, fn func(task, worker int)) {
	nworkers := ex.workers
	if nworkers > ntasks {
		nworkers = ntasks
	}
	if nworkers <= 1 {
		ran := int64(0)
		for i := 0; i < ntasks; i++ {
			if stop != nil && stop.Load() != 0 {
				break
			}
			fn(i, 0)
			ran++
		}
		if ex.tally != nil {
			ex.tally.Tasks.Add(ran)
		}
		return
	}
	if ex.rt == PerCall {
		spawnFor(nworkers, ntasks, ex.sc, stop, fn)
		return
	}
	sched.Shared(nworkers).RunOptions(ntasks, stop, sched.Options{NoSteal: ex.sc == Static, Tally: ex.tally}, fn)
}

// spawnFor is the PerCall runtime: fresh goroutines and a WaitGroup
// barrier on every call, with Dynamic pulling tasks from a shared atomic
// counter and Static pre-assigning them round-robin. Kept as the
// scheduling ablation baseline the pooled runtime is gated against.
func spawnFor(nworkers, ntasks int, sc Schedule, stop *atomic.Int32, fn func(task, worker int)) {
	var wg sync.WaitGroup
	wg.Add(nworkers)
	if sc == Dynamic {
		var next atomic.Int64
		for w := 0; w < nworkers; w++ {
			go func(w int) {
				defer wg.Done()
				for {
					if stop != nil && stop.Load() != 0 {
						return
					}
					i := int(next.Add(1) - 1)
					if i >= ntasks {
						return
					}
					fn(i, w)
				}
			}(w)
		}
	} else {
		for w := 0; w < nworkers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := w; i < ntasks; i += nworkers {
					if stop != nil && stop.Load() != 0 {
						return
					}
					fn(i, w)
				}
			}(w)
		}
	}
	wg.Wait()
}

func runTyped[V, E, M, R any, P Program[V, E, M, R]](g *graph.Graph[V, E], p P, cfg Config, ws *Workspace[M, R], ctrl *controller) (stats Stats, err error) {
	n := int(g.NumVertices())
	props := g.Props()
	active := g.Active()
	dir := p.Direction()

	// The traversal structures are pinned once here as base+delta layers:
	// whatever the graph's owning store publishes later, this run keeps
	// iterating exactly this epoch's edge set.
	var outLayers, inLayers []sparse.Layered[E]
	if dir&graph.Out != 0 {
		outLayers = g.OutLayers()
	}
	if dir&graph.In != 0 {
		inLayers = g.InLayers()
	}

	// Auto mode needs the frontier's edge work each superstep: the degree of
	// every sender with respect to the traversal structures in play. The sum
	// is tallied for free during the SendMessage phase (one array load per
	// sender); fixed modes skip the accounting entirely. The structure-side
	// costs are fixed for the whole run.
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

	// Multiply-phase task lists, prepared once per run and direction: a
	// partition-granular list plus the nnz-weighted shaped list the pooled
	// runtime uses on pull supersteps (see shapeTasks).
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

	stats.Reason = MaxIterations // what remains if the loop runs out
	for iter := 0; iter < maxIter; iter++ {
		if r, ok := ctrl.stopped(); ok {
			stats.Reason = r
			return stats, r.err()
		}
		stepStart := time.Now() //lint:graphmat bannedcalls one clock read per superstep, off the per-edge path
		frontier := int64(active.Count())
		stats.ActiveSum += frontier
		stats.Iterations++

		// Phase 1: SendMessage over active vertices builds the sparse
		// message vector (Algorithm 2 lines 3-5).
		x.Reset()
		parallelFor(ex, nchunks, stop, func(c, w int) {
			st := &locals[w]
			active.IterateRange(chunks[c], chunks[c+1], func(v uint32) {
				if m, ok := p.SendMessage(v, props[v]); ok {
					x.Set(v, m)
					if autoDegs != nil {
						st.degSum += int64(autoDegs[v])
					}
				}
			})
		})
		// The frontier sizes come off the occupancy masks, not per-Set
		// counters: one popcount sweep per phase feeds the cost model and
		// the stats.
		sent := int64(x.NNZ())
		stats.MessagesSent += sent
		_, degSum := stats.absorb(locals)

		// Per-superstep direction optimization: resolve Auto from the
		// frontier's size and edge work against the structure-side costs.
		stepMode := costs.Choose(cfg.Mode, cfg.PushThreshold, sent, degSum)

		var applies, nactive int64
		if sent > 0 {
			if stepMode == Push {
				stats.PushSupersteps++
			} else {
				stats.PullSupersteps++
			}
			// Phase 2: generalized SpMV (Algorithm 1) through the selected
			// kernel. Each task owns a disjoint 64-aligned output row range
			// (a partition, or a row slice of one), so no synchronization
			// on y.
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
						spmvPush(layers[t.layer], x, props, p, y, &locals[w])
					} else {
						spmvPull(layers[t.layer], x, props, p, y, &locals[w], t.rlo, t.rhi)
					}
				})
			}

			// A stop raised mid-SpMV must not Apply a partially reduced y:
			// return the partial tallies without touching vertex state
			// further.
			if r, ok := ctrl.stopped(); ok {
				stats.absorb(locals)
				stats.Reason = r
				return stats, r.err()
			}

			// Phase 3: Apply and re-activation (Algorithm 2 lines 7-13).
			active.Reset()
			parallelFor(ex, nchunks, stop, func(c, w int) {
				st := &locals[w]
				y.IterateRange(chunks[c], chunks[c+1], func(v uint32, r R) {
					st.applies++
					if p.Apply(r, v, &props[v]) {
						active.Set(v)
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
