package algorithms

import (
	"context"
	"errors"

	"graphmat"
)

// This file is the multi-source batch layer: one engine block run advancing
// up to graphmat.MaxBlockSources independent source columns per adjacency
// sweep, with wider batches split into word-sized blocks. Every batched
// algorithm is bit-identical per source to the corresponding single-source
// run — the block engine's semiring contract, asserted end-to-end by the
// package's differential suite — so batching is purely a throughput knob:
// the column probes and edge walks that dominate a traversal are paid once
// per edge instead of once per (edge, source).

// ErrBatchUnsupported reports a RunBatch call on an algorithm with no
// multi-source form (pagerank, components, triangles, hits — their runs are
// not parameterized by a source vertex).
var ErrBatchUnsupported = errors.New("algorithms: algorithm does not support batched multi-source runs")

// BatchResult is the uniform output of a multi-source registry run: one
// value series per source, plus the aggregate engine stats of the whole
// batch and the epoch the batch was pinned to. Values[i] corresponds to
// Sources[i] and is laid out exactly like the single-source Result.Values.
type BatchResult struct {
	Sources []uint32       `json:"sources"`
	Values  [][]float64    `json:"values"`
	Stats   graphmat.Stats `json:"stats"`
	Epoch   uint64         `json:"epoch"`
}

// fullMask returns the k-bit live-column mask.
func fullMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}

// runTraversalBatch is the shared driver of the single-shot traversal family
// (BFS, SSSP, reachability, widest paths): property, message and reduction
// types coincide, every column starts as {unreached everywhere, sourceVal at
// its source} and the block run iterates until every column's frontier dies.
func runTraversalBatch[V any, P graphmat.BlockProgram[V, float32, V, V]](
	ctx context.Context, g *graphmat.Graph[V, float32], p P, sources []uint32,
	unreached, sourceVal V, set *settings,
) ([][]V, graphmat.Stats, error) {
	n := int(g.NumVertices())
	for _, src := range sources {
		if err := checkSource(src, g.NumVertices(), "source"); err != nil {
			return nil, graphmat.Stats{}, err
		}
	}
	sess := newSession(set.obs)
	out := make([][]V, len(sources))
	var stats graphmat.Stats
	stats.Reason = graphmat.Converged
	for lo := 0; lo < len(sources); lo += graphmat.MaxBlockSources {
		hi := min(lo+graphmat.MaxBlockSources, len(sources))
		chunk := sources[lo:hi]
		k := len(chunk)
		st := graphmat.NewBlockState[V](n, k)
		st.SetAllProps(unreached)
		for s, src := range chunk {
			st.SetProp(src, s, sourceVal)
			st.Activate(src, s)
		}
		s, err := graphmat.RunBlockContext(ctx, g, p, st, set.cfg, nil, sess.options()...)
		accumulate(&stats, s)
		if err != nil {
			stats.Reason = s.Reason
			return out, stats, err
		}
		if s.Reason != graphmat.Converged {
			stats.Reason = s.Reason
		}
		for s := range chunk {
			col := make([]V, n)
			st.Column(s, col)
			out[lo+s] = col
		}
	}
	return out, stats, nil
}

// RunBFSBatch computes hop distances from every source in one multi-source
// block run (chunks of up to graphmat.MaxBlockSources share each adjacency
// sweep). out[i][v] is the distance from sources[i] to v, bit-identical to
// RunBFS(ctx, g, sources[i]). Engine options apply (WithConfig/WithThreads/
// WithMode, WithObserver); WithWorkspace is ignored — block scratch is
// allocated per chunk.
func RunBFSBatch(ctx context.Context, g *graphmat.Graph[uint32, float32], sources []uint32, opts ...Option) ([][]uint32, graphmat.Stats, error) {
	return runTraversalBatch(ctx, g, BFSProgram{}, sources, uint32(Unreached), 0, newSettings(opts))
}

// RunSSSPBatch computes shortest-path distances from every source in one
// multi-source block run; out[i] is bit-identical to RunSSSP from
// sources[i]. Options as in RunBFSBatch.
func RunSSSPBatch(ctx context.Context, g *graphmat.Graph[float32, float32], sources []uint32, opts ...Option) ([][]float32, graphmat.Stats, error) {
	return runTraversalBatch(ctx, g, SSSPProgram{}, sources, InfDist, 0, newSettings(opts))
}

// RunReachabilityBatch computes directed reachability from every source in
// one multi-source block run; out[i] is bit-identical to RunReachability
// from sources[i]. Options as in RunBFSBatch.
func RunReachabilityBatch(ctx context.Context, g *graphmat.Graph[uint32, float32], sources []uint32, opts ...Option) ([][]uint32, graphmat.Stats, error) {
	return runTraversalBatch(ctx, g, ReachabilityProgram{}, sources, 0, 1, newSettings(opts))
}

// RunWidestPathBatch computes bottleneck path widths from every source in
// one multi-source block run; out[i] is bit-identical to RunWidestPath from
// sources[i]. Options as in RunBFSBatch.
func RunWidestPathBatch(ctx context.Context, g *graphmat.Graph[float32, float32], sources []uint32, opts ...Option) ([][]float32, graphmat.Stats, error) {
	return runTraversalBatch(ctx, g, WidestPathProgram{}, sources, 0, WidestSourceCap, newSettings(opts))
}

// RunPersonalizedPageRankBatch runs one single-source personalized PageRank
// per source — k independent personalization vectors advanced together, one
// adjacency sweep per outer iteration serving every still-unconverged column.
// out[i] is bit-identical to RunPersonalizedPageRank(ctx, g, []uint32{
// sources[i]}, ...): each column converges (or hits the iteration cap) on
// its own schedule and then drops out of the sweep. Options: WithIterations/
// WithTolerance/WithRestartProb plus the engine options; WithWorkspace is
// ignored.
func RunPersonalizedPageRankBatch(ctx context.Context, g *graphmat.Graph[PPRVertex, float32], sources []uint32, opts ...Option) ([][]float64, graphmat.Stats, error) {
	set := newSettings(opts)
	n := int(g.NumVertices())
	for _, src := range sources {
		if err := checkSource(src, g.NumVertices(), "source"); err != nil {
			return nil, graphmat.Stats{}, err
		}
	}
	iters, restart := set.rankDefaults()
	inv := make([]float64, n)
	for v := 0; v < n; v++ {
		if d := g.OutDegree(uint32(v)); d > 0 {
			inv[v] = 1 / float64(d)
		}
	}
	prog := PersonalizedPageRankProgram{RestartProb: restart, Tolerance: set.tol}
	cfg := set.cfg
	cfg.MaxIterations = 1
	sess := newSession(set.obs)
	out := make([][]float64, len(sources))
	var stats graphmat.Stats
	stats.Reason = graphmat.Converged
	for lo := 0; lo < len(sources); lo += graphmat.MaxBlockSources {
		hi := min(lo+graphmat.MaxBlockSources, len(sources))
		chunk := sources[lo:hi]
		k := len(chunk)
		st := graphmat.NewBlockState[PPRVertex](n, k)
		st.InitProps(func(v uint32, s int) PPRVertex {
			p := PPRVertex{InvDeg: inv[v]}
			if v == chunk[s] {
				// A single-source personalization set: the whole teleport
				// mass and the initial rank live at the source (matching the
				// scalar driver with len(sources) == 1).
				p.Restart = restart
				p.Rank = 1
			}
			return p
		})
		ws := graphmat.NewBlockWorkspace[float64, float64](n, k)
		live := fullMask(k)
		for it := 0; it < iters && live != 0; it++ {
			st.ActivateAllMask(live)
			s, err := graphmat.RunBlockContext(ctx, g, prog, st, cfg, ws, sess.options()...)
			accumulate(&stats, s)
			if err != nil {
				stats.Reason = s.Reason
				return out, stats, err
			}
			// A column with no vertex left active has settled within
			// Tolerance everywhere: converged, out of the sweep.
			live &= st.ActiveColumns()
		}
		if live != 0 {
			stats.Reason = graphmat.MaxIterations
		}
		row := make([]PPRVertex, n)
		for s := range chunk {
			st.Column(s, row)
			ranks := make([]float64, n)
			for v := range ranks {
				ranks[v] = row[v].Rank
			}
			out[lo+s] = ranks
		}
	}
	return out, stats, nil
}
