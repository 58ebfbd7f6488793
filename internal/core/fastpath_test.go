package core

import (
	"testing"
	"testing/quick"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// ssspMarked is ssspProg plus the DstIndependent marker: the engine must
// take the no-property-load fast path and produce identical results.
type ssspMarked struct{ ssspProg }

func (ssspMarked) ProcessIgnoresDst() {}

// ssspReadsDst deliberately reads (but ignores the value of) the dst
// property, forcing the slow path.
type ssspReadsDst struct{ ssspProg }

func (ssspReadsDst) ProcessMessage(m, e float32, dst float32) float32 {
	_ = dst
	return m + e
}

func TestDstIndependentFastPathEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		build := func() *graph.Graph[float32, float32] {
			coo := gen.RMAT(gen.RMATOptions{Scale: 7, EdgeFactor: 4, Seed: seed, MaxWeight: 9})
			coo.RemoveSelfLoops()
			g, err := graph.NewFromCOO[float32, float32](coo, graph.Options{Partitions: 5})
			if err != nil {
				t.Fatal(err)
			}
			g.SetAllProps(inf)
			g.SetProp(0, 0)
			g.SetActive(0)
			return g
		}
		g1 := build()
		Run(g1, ssspMarked{}, Config{Threads: 2})
		g2 := build()
		Run(g2, ssspReadsDst{}, Config{Threads: 2})
		for v := uint32(0); v < g1.NumVertices(); v++ {
			if g1.Prop(v) != g2.Prop(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// sumProg folds float messages; its results must be bit-identical across
// thread counts and schedules because each destination's contributions are
// always folded in ascending-source order within its single owning
// partition.
type sumProg struct{}

func (sumProg) SendMessage(v VertexID, prop float64) (float64, bool) { return prop, true }
func (sumProg) ProcessMessage(m float64, e float32, _ float64) float64 {
	return m * float64(e)
}
func (sumProg) Reduce(a, b float64) float64                     { return a + b }
func (sumProg) Apply(r float64, _ VertexID, prop *float64) bool { *prop = r; return false }
func (sumProg) Direction() graph.Direction                      { return graph.Out }

func TestFloatDeterminismAcrossSchedules(t *testing.T) {
	coo := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 5, MaxWeight: 7})
	coo.RemoveSelfLoops()
	coo.SortRowMajor()
	coo.DedupKeepFirst()
	run := func(cfg Config, nparts int) []float64 {
		c := coo.Clone()
		g, err := graph.NewFromCOO[float64, float32](c, graph.Options{Partitions: nparts})
		if err != nil {
			t.Fatal(err)
		}
		g.InitProps(func(v uint32) float64 { return float64(v%97) * 0.013 })
		g.SetAllActive()
		cfg.MaxIterations = 1
		Run(g, sumProg{}, cfg)
		out := make([]float64, g.NumVertices())
		for v := range out {
			out[v] = g.Prop(uint32(v))
		}
		return out
	}
	ref := run(Config{Threads: 1}, 1)
	for _, tc := range []struct {
		cfg    Config
		nparts int
	}{
		{Config{Threads: 2}, 8},
		{Config{Threads: 4, Schedule: Static}, 16},
		{Config{Threads: 3, Schedule: Dynamic}, 5},
	} {
		got := run(tc.cfg, tc.nparts)
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("cfg %+v parts %d: prop[%d] = %v, want %v (float determinism broken)",
					tc.cfg, tc.nparts, v, got[v], ref[v])
			}
		}
	}
}

// TestSingleVertexGraph and friends pin degenerate-input behavior.
func TestSingleVertexGraph(t *testing.T) {
	c := sparse.NewCOO[float32](1, 1)
	g, err := graph.NewFromCOO[float32, float32](c, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllProps(inf)
	g.SetProp(0, 0)
	g.SetActive(0)
	stats, _ := Run(g, ssspProg{}, Config{})
	if g.Prop(0) != 0 {
		t.Error("vertex state disturbed")
	}
	if stats.Iterations != 1 {
		t.Errorf("Iterations = %d", stats.Iterations)
	}
}

func TestEdgelessGraph(t *testing.T) {
	c := sparse.NewCOO[float32](100, 100)
	g, err := graph.NewFromCOO[float32, float32](c, graph.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllProps(inf)
	g.SetProp(0, 0)
	g.SetActive(0)
	stats, _ := Run(g, ssspProg{}, Config{Threads: 2})
	if stats.EdgesProcessed != 0 {
		t.Errorf("EdgesProcessed = %d on edgeless graph", stats.EdgesProcessed)
	}
	for v := uint32(1); v < 100; v++ {
		if g.Prop(v) != inf {
			t.Fatalf("vertex %d reached without edges", v)
		}
	}
}

func TestSelfLoopOnlyGraph(t *testing.T) {
	// Self loops should not cause infinite activation with min-reduce
	// (distance cannot improve through a positive-weight self loop).
	c := sparse.NewCOO[float32](3, 3)
	c.Add(0, 0, 1)
	c.Add(0, 1, 2)
	g, err := graph.NewFromCOO[float32, float32](c, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllProps(inf)
	g.SetProp(0, 0)
	g.SetActive(0)
	stats, _ := Run(g, ssspProg{}, Config{MaxIterations: 50})
	if stats.Iterations >= 50 {
		t.Error("self loop caused livelock")
	}
	if g.Prop(1) != 2 {
		t.Errorf("dist[1] = %v", g.Prop(1))
	}
}
