package core

import (
	"math"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// prProg is PageRank as a sum-fold program: each vertex spreads its rank
// over its out-edges, and the (+, passthrough) fold takes the fused
// ScatterAddF64 path.
type prProg struct{ deg []uint32 }

func (p prProg) SendMessage(v VertexID, rank float64) (float64, bool) {
	if p.deg[v] == 0 {
		return 0, false
	}
	return rank / float64(p.deg[v]), true
}
func (prProg) ProcessMessage(m float64, _ float32, _ float64) float64 { return m }
func (prProg) Reduce(a, b float64) float64                            { return a + b }
func (prProg) Apply(r float64, _ VertexID, rank *float64) bool {
	*rank = 0.15 + 0.85*r
	return true
}
func (prProg) Direction() graph.Direction { return graph.Out }
func (prProg) ProcessIgnoresDst()         {}
func (prProg) ReducesBySumF64()           {}

// overlayGraphs builds a skewed RMAT store with one pending update batch
// (compaction off, so every partition the batch touches carries a delta),
// returning its pinned snapshot — the caller releases it — and a fresh build
// of the same live edges.
func overlayGraphs[V any](t *testing.T) (pinned *graph.Snapshot[V, float32], fresh *graph.Graph[V, float32]) {
	t.Helper()
	// Edge-dense RMAT: the shaper's column-sweep budget only splits
	// partitions with many edges per live column.
	base := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 32, Seed: 20150831, MaxWeight: 9})
	base.SortRowMajor()
	base.DedupKeepFirst()
	ops := gen.Updates(base, gen.UpdateOptions{Count: 600, MaxWeight: 9, Seed: 12})
	batch := make([]graph.Update[float32], len(ops))
	for i, op := range ops {
		batch[i] = graph.Update[float32]{Src: op.Src, Dst: op.Dst, Val: op.Weight, Del: op.Del}
	}
	batches := [][]graph.Update[float32]{batch}

	opts := graph.Options{Partitions: 2, CompactFraction: -1}
	store, err := graph.NewStore[V, float32](base.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ApplyEdges(batch); err != nil {
		t.Fatal(err)
	}
	fresh, err = graph.NewFromCOO[V, float32](applyBrute(base, batches), opts)
	if err != nil {
		t.Fatal(err)
	}
	return store.Acquire(), fresh
}

// requireOverlaySplit asserts the pooled pull plan row-splits at least one
// partition that carries a delta overlay.
func requireOverlaySplit(t *testing.T, layers []sparse.Layered[float32], cfg Config) {
	t.Helper()
	plan := shapeTasks(layers, cfg.Threads, cfg.Runtime)
	perLayer := make([]int, len(layers))
	for _, task := range plan.pick(Pull) {
		perLayer[task.layer]++
	}
	for i, l := range layers {
		if l.Delta != nil && perLayer[i] > 1 {
			return
		}
	}
	t.Fatalf("no overlay partition was row-split: tasks per partition %v", perLayer)
}

// sameTallies compares the deterministic engine tallies of two runs.
func sameTallies(t *testing.T, got, want Stats) {
	t.Helper()
	if got.Iterations != want.Iterations || got.MessagesSent != want.MessagesSent ||
		got.EdgesProcessed != want.EdgesProcessed || got.Applies != want.Applies {
		t.Fatalf("stats %+v, fresh build %+v", got, want)
	}
}

// TestOverlayPartitionsAreRowSplit checks that a pooled pull superstep
// row-splits heavy partitions that carry pending updates, like any other,
// and that the split changes no bit of the result: PageRank (fused float64
// sum fold) and SSSP (fused float32 min-plus fold) on the overlay match a
// fresh build of the live edges.
func TestOverlayPartitionsAreRowSplit(t *testing.T) {
	cfg := Config{Threads: 4, Runtime: Pooled, Mode: Pull, MaxIterations: 10}

	t.Run("pagerank", func(t *testing.T) {
		snap, fresh := overlayGraphs[float64](t)
		defer snap.Release()
		overlay := snap.View()
		requireOverlaySplit(t, overlay.OutLayers(), cfg)
		run := func(g *graph.Graph[float64, float32]) Stats {
			g.SetAllProps(1)
			for v := uint32(0); v < g.NumVertices(); v++ {
				g.SetActive(v)
			}
			stats, err := Run[float64, float32, float64, float64](g, prProg{deg: g.OutDegrees()}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return stats
		}
		got, want := run(overlay), run(fresh)
		sameTallies(t, got, want)
		for v, w := range fresh.Props() {
			if g := overlay.Props()[v]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("rank[%d] = %v, fresh build %v", v, g, w)
			}
		}
	})

	t.Run("sssp", func(t *testing.T) {
		snap, fresh := overlayGraphs[float32](t)
		defer snap.Release()
		overlay := snap.View()
		requireOverlaySplit(t, overlay.OutLayers(), cfg)
		roots := []uint32{0, 1, overlay.NumVertices() - 1}
		run := func(g *graph.Graph[float32, float32]) Stats {
			initDiffState(g, roots)
			stats, err := Run[float32, float32, float32, float32](g, ssspFused{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return stats
		}
		got, want := run(overlay), run(fresh)
		sameTallies(t, got, want)
		for v, w := range fresh.Props() {
			if g := overlay.Props()[v]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("dist[%d] = %v, fresh build %v", v, g, w)
			}
		}
	})
}
