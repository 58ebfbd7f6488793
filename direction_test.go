package graphmat_test

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
)

// TestDirectionOptimizedBFS18 is the kernel-layer acceptance test: BFS on a
// scale-18 RMAT graph must be bit-identical under pull, push and auto, and
// the sparse-frontier regime the push kernel exists for — the ISSUE's
// "10-vertex frontier on a scale-18 graph still pays O(nparts × nzcols)
// probe work" — must be ≥2× faster under Auto than under Pull at
// GOMAXPROCS ≥ 8. That regime is measured on a real feature of the graph: a
// pendant pair (a two-vertex component), the kind of low-reach root a BFS
// service gets queried for constantly. A giant-component hub BFS is also run
// in every mode to prove identity (its wall clock is dominated by the two
// dense supersteps' edge work, which every mode shares, so no gate applies
// there — auto must simply never lose to pull by more than noise).
//
// Short mode and race builds scale the graph down (the identity checks
// still run); the timing gate applies only where the speedup is promised.
func TestDirectionOptimizedBFS18(t *testing.T) {
	scale, timed := 18, true
	if runtime.GOMAXPROCS(0) < 8 || runtime.NumCPU() < 8 {
		scale, timed = 15, false
	}
	if raceEnabled {
		scale, timed = 13, false
	}
	if testing.Short() {
		scale, timed = 12, false
	}

	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 255})

	// Find a pendant pair on the symmetrized preprocessed view (mirroring
	// NewBFSGraph's preprocessing): a vertex of degree 1 whose only
	// neighbor also has degree 1 is a two-vertex component, the smallest
	// frontier a reachable root can have.
	pre := adj.Clone()
	pre.RemoveSelfLoops()
	pre.SortRowMajor()
	pre.DedupKeepFirst()
	pre.Symmetrize()
	deg := make([]uint32, pre.NRows)
	var hub uint32
	for _, e := range pre.Entries {
		deg[e.Row]++
	}
	for v := range deg {
		if deg[v] > deg[hub] {
			hub = uint32(v)
		}
	}
	pendant, havePendant := uint32(0), false
	for _, e := range pre.Entries {
		if e.Row != e.Col && deg[e.Row] == 1 && deg[e.Col] == 1 {
			pendant, havePendant = e.Row, true
			break
		}
	}
	if !havePendant {
		// Tiny scaled-down graphs may lack one; an isolated vertex (a
		// one-superstep BFS) exercises the same regime.
		for v := range deg {
			if deg[v] == 0 {
				pendant, havePendant = uint32(v), true
				break
			}
		}
	}
	if !havePendant {
		pendant, timed = hub, false
	}

	g, err := algorithms.NewBFSGraph(adj, 0) // default partitioning: 8×GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	ws := graphmat.NewWorkspace[uint32, uint32](int(g.NumVertices()), graphmat.Bitvector)

	// measure runs `reps` consecutive traversals and returns the best round
	// of three, plus the (bit-compared) distances and stats of the last run.
	measure := func(root uint32, mode graphmat.Mode, reps int) (time.Duration, []uint32, graphmat.Stats) {
		var dist []uint32
		var stats graphmat.Stats
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 3; round++ {
			start := time.Now()
			for r := 0; r < reps; r++ {
				d, s, err := algorithms.RunBFS(context.Background(), g, root, algorithms.WithMode(mode), algorithms.WithWorkspace(ws))
				if err != nil {
					t.Fatal(err)
				}
				dist, stats = d, s
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best, dist, stats
	}

	sameDist := func(what string, mode graphmat.Mode, ref, got []uint32, refStats, stats graphmat.Stats) {
		t.Helper()
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("%s BFS dist[%d]: %s=%d pull=%d", what, v, mode, got[v], ref[v])
			}
		}
		if stats.Iterations != refStats.Iterations || stats.EdgesProcessed != refStats.EdgesProcessed ||
			stats.MessagesSent != refStats.MessagesSent || stats.Applies != refStats.Applies {
			t.Errorf("%s BFS stats diverge under %s: %+v vs pull %+v", what, mode, stats, refStats)
		}
	}

	// Identity on the giant component (hub root), all three modes.
	hubPullTime, hubRef, hubRefStats := measure(hub, graphmat.Pull, 1)
	hubAutoTime := time.Duration(0)
	for _, mode := range []graphmat.Mode{graphmat.Push, graphmat.Auto} {
		el, dist, stats := measure(hub, mode, 1)
		sameDist("hub", mode, hubRef, dist, hubRefStats, stats)
		if mode == graphmat.Auto {
			hubAutoTime = el
		}
	}

	// Identity and the ≥2× gate on the sparse-frontier root.
	const reps = 10
	pendPullTime, pendRef, pendRefStats := measure(pendant, graphmat.Pull, reps)
	pendAutoTime := time.Duration(0)
	var pendAutoStats graphmat.Stats
	for _, mode := range []graphmat.Mode{graphmat.Push, graphmat.Auto} {
		el, dist, stats := measure(pendant, mode, reps)
		sameDist("pendant", mode, pendRef, dist, pendRefStats, stats)
		if mode == graphmat.Auto {
			pendAutoTime, pendAutoStats = el, stats
		}
	}

	t.Logf("scale %d (%d procs): hub pull %v auto %v; pendant(×%d) pull %v auto %v (auto pushed %d of %d supersteps)",
		scale, runtime.GOMAXPROCS(0), hubPullTime, hubAutoTime, reps, pendPullTime, pendAutoTime,
		pendAutoStats.PushSupersteps, pendAutoStats.Iterations)

	if timed && pendAutoTime*2 > pendPullTime {
		t.Errorf("sparse-frontier BFS: auto %v not ≥2× faster than pull %v at GOMAXPROCS=%d",
			pendAutoTime, pendPullTime, runtime.GOMAXPROCS(0))
	}
	if timed && hubAutoTime > hubPullTime*2 {
		t.Errorf("hub BFS: auto %v regressed beyond 2× of pull %v", hubAutoTime, hubPullTime)
	}
}
