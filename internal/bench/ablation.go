package bench

import (
	"context"

	"graphmat"
	"graphmat/algorithms"
)

// prVertexAlias keeps the Figure 7 graph declaration readable.
type prVertexAlias = algorithms.PRVertex

// must unwraps a GraphMat run on a prepared graph with no deadline or
// observer, where an error means a broken harness.
func must[T any](out T, stats graphmat.Stats, err error) (T, graphmat.Stats) {
	if err != nil {
		panic(err)
	}
	return out, stats
}

// runPageRankAblation executes one fixed-iteration PageRank under an
// explicit engine configuration (the Figure 7 steps).
func runPageRankAblation(g *graphmat.Graph[algorithms.PRVertex, float32], iters int, cfg graphmat.Config) {
	must(algorithms.RunPageRank(context.Background(), g, algorithms.WithIterations(iters), algorithms.WithConfig(cfg)))
}

// runSSSPAblation executes one SSSP under an explicit engine configuration.
func runSSSPAblation(g *graphmat.Graph[float32, float32], root uint32, cfg graphmat.Config) {
	must(algorithms.RunSSSP(context.Background(), g, root, algorithms.WithConfig(cfg)))
}
