// Progress: the context-aware session API. PageRank runs on a synthetic
// RMAT graph with a per-superstep observer streaming convergence progress,
// under a context that cancels on Ctrl-C and a hard wall-clock budget.
//
//	go run ./examples/progress
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
)

func main() {
	adj := gen.RMAT(gen.RMATOptions{Scale: 14, EdgeFactor: 16, Seed: 42})
	g, err := algorithms.NewPageRankGraph(adj, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("pagerank on %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Ctrl-C cancels the run; the budget bounds it even without a signal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()

	ranks, stats, err := algorithms.RunPageRank(ctx, g,
		algorithms.WithIterations(50), algorithms.WithTolerance(1e-9),
		algorithms.WithObserver(func(info graphmat.IterationInfo) error {
			// NextActive is the number of vertices whose rank still moved
			// more than Tolerance — the convergence residual proxy.
			fmt.Printf("  superstep %2d: %7d unconverged, %s\n",
				info.Iteration, info.NextActive, info.Elapsed.Round(time.Microsecond))
			return nil
		}))
	switch {
	case err == nil:
		fmt.Printf("finished: %s after %d supersteps\n", stats.Reason, stats.Iterations)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		fmt.Printf("stopped early (%s) with partial ranks after %d supersteps\n",
			stats.Reason, stats.Iterations)
	default:
		panic(err)
	}
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	fmt.Printf("rank mass %.4f over %d vertices\n", sum, len(ranks))
}
