package graphmat_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
)

// TestSchedSkewedPageRankSpeedup is the scheduler acceptance gate: on a
// partition-starved graph (2 partitions, 8 threads) pull PageRank under the
// pooled runtime must beat the per-call partition-granular fan-out by ≥1.3x.
// Per-call parallelism is capped at one goroutine per partition in the
// multiply phase, so at most 2 of the 8 workers do edge work; the pooled
// runtime's nnz-weighted shaping splits each partition into 64-aligned
// destination-row tasks and lets all 8 pull from the shared queues. The
// 1.3x bar is far below the ideal ratio, leaving headroom for CI noise.
//
// Gated on GOMAXPROCS≥8: below that the per-call baseline isn't actually
// starved relative to the machine and the ratio is meaningless.
func TestSchedSkewedPageRankSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("perf acceptance gate; skipped in -short mode")
	}
	if p := runtime.GOMAXPROCS(0); p < 8 {
		t.Skipf("GOMAXPROCS=%d < 8; the per-call baseline is not partition-starved", p)
	}
	if n := runtime.NumCPU(); n < 8 {
		// A forced GOMAXPROCS above the physical core count measures
		// context-switch thrash, not scheduling: 8 workers time-slicing
		// fewer cores serialize both runtimes.
		t.Skipf("NumCPU=%d < 8; oversubscribed workers would not run in parallel", n)
	}

	// Edge-dense RMAT (edge factor 32) so the shaper's column-sweep budget
	// admits a fine split: pull sub-tasks re-sweep the partition's live
	// columns, and a column-rich hypersparse graph would correctly be kept
	// coarse — the opposite of what this gate exercises.
	adj := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 32, Seed: 20150831, MaxWeight: 0})
	g, err := algorithms.NewPageRankGraph(adj, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws := graphmat.NewWorkspace[float64, float64](int(g.NumVertices()), graphmat.Bitvector)

	// Best-of-N wall time per runtime: the minimum is the least-noisy
	// estimator for a CPU-bound run on a shared CI machine.
	measure := func(rt graphmat.Runtime) time.Duration {
		cfg := graphmat.Config{Threads: 8, Mode: graphmat.Pull, Runtime: rt}
		best := time.Duration(0)
		for i := 0; i < 5; i++ {
			start := time.Now()
			_, _, err := algorithms.RunPageRank(context.Background(), g,
				algorithms.WithIterations(20), algorithms.WithConfig(cfg), algorithms.WithWorkspace(ws))
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	// Warm both paths once (page-in, pool spawn) before timing.
	measure(graphmat.PerCall)
	pooled := measure(graphmat.Pooled)
	percall := measure(graphmat.PerCall)

	ratio := float64(percall) / float64(pooled)
	t.Logf("pooled %v, per-call %v, speedup %.2fx", pooled, percall, ratio)
	if ratio < 1.3 {
		t.Errorf("pooled runtime speedup %.2fx < 1.3x on skewed-partition PageRank (pooled %v, per-call %v)",
			ratio, pooled, percall)
	}
}
