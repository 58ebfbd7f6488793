package core

import (
	"context"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// SpMV exposes one generalized multiplication y = Gᵀ ⊗ x outside the driver
// loop: used by tests and by callers that want a single traversal step (the
// in-degree example of Figure 1). The result vector maps destination vertex
// to reduced value. It is SpMVContext without a context; a configuration
// SpMVContext rejects yields nil.
func SpMV[V, E, M, R any, P Program[V, E, M, R]](g *graph.Graph[V, E], x *sparse.Vector[M], p P, cfg Config) *sparse.Vector[R] {
	y, _ := SpMVContext[V, E, M, R, P](context.Background(), g, x, p, cfg)
	return y
}

// SpMVContext is the single-shot generalized SpMV as a full citizen of the
// engine configuration: it dispatches through the same kernels as the
// superstep loop — cfg.Mode selects pull, push, or the per-call Auto density
// decision — and ctx cancellation aborts the partition loop cooperatively
// through the same stop flag the engine polls. A canceled call returns the
// partial y alongside ctx.Err(). The message vector is always the
// bitvector x itself; like RunContext, it rejects the sorted
// representation outside the boxed ablation path (see Config.Vector).
func SpMVContext[V, E, M, R any, P Program[V, E, M, R]](
	ctx context.Context, g *graph.Graph[V, E], x *sparse.Vector[M], p P, cfg Config,
) (*sparse.Vector[R], error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ctrl, release := newController(ctx, runOptions{})
	defer release()

	y := sparse.NewVector[R](int(g.NumVertices()))
	locals := make([]localStats, cfg.Threads)
	layers := g.OutLayers()
	degs := g.OutDegrees()
	if p.Direction()&graph.In != 0 {
		layers = g.InLayers()
		degs = g.InDegrees()
	}
	mode := cfg.Mode
	if mode == Auto {
		costs := AddLayers(KernelCosts{}, layers)
		mode = costs.Choose(mode, cfg.PushThreshold, int64(x.NNZ()), frontierWork(x, degs))
	}

	ex := cfg.exec(nil)
	parallelFor(ex, len(layers), ctrl.flag(), func(i, w int) {
		if mode == Push {
			spmvPush(layers[i], x, g.Props(), p, y, &locals[w])
		} else {
			spmvPull(layers[i], x, g.Props(), p, y, &locals[w], 0, ^uint32(0))
		}
	})
	if r, ok := ctrl.stopped(); ok {
		return y, r.err()
	}
	return y, nil
}
