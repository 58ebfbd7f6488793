package core

import (
	"math"
	"testing"
	"testing/quick"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

const inf = float32(math.MaxFloat32)

// ssspProg is the paper's appendix program: message = current distance,
// process = message + edge weight, reduce = min, apply = min with activation
// on improvement.
type ssspProg struct{}

func (ssspProg) SendMessage(v VertexID, prop float32) (float32, bool) { return prop, true }
func (ssspProg) ProcessMessage(m, e float32, _ float32) float32       { return m + e }
func (ssspProg) Reduce(a, b float32) float32                          { return min(a, b) }
func (ssspProg) Apply(r float32, _ VertexID, prop *float32) bool {
	if r < *prop {
		*prop = r
		return true
	}
	return false
}
func (ssspProg) Direction() graph.Direction { return graph.Out }

// countProg counts arriving messages: in-degree with Direction Out
// (Figure 1), out-degree with Direction In, total degree with Both.
type countProg struct{ dir graph.Direction }

func (countProg) SendMessage(v VertexID, _ uint32) (uint32, bool)     { return 1, true }
func (countProg) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m }
func (countProg) Reduce(a, b uint32) uint32                           { return a + b }
func (countProg) Apply(r uint32, _ VertexID, prop *uint32) bool       { *prop = r; return false }
func (p countProg) Direction() graph.Direction                        { return p.dir }

// fig3Graph builds the Figure 3 worked example.
func fig3Graph(t testing.TB, opts graph.Options) *graph.Graph[float32, float32] {
	t.Helper()
	c := sparse.NewCOO[float32](5, 5)
	c.Add(0, 1, 1)
	c.Add(0, 2, 3)
	c.Add(0, 3, 2)
	c.Add(1, 2, 1)
	c.Add(3, 4, 2)
	c.Add(4, 0, 4)
	c.Add(2, 3, 2)
	g, err := graph.NewFromCOO[float32, float32](c, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllProps(inf)
	g.SetProp(0, 0)
	g.SetActive(0)
	return g
}

func TestSSSPFigure3(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Threads: 1},
		{Threads: 2, Schedule: Static},
		{Dispatch: Boxed},
		{Dispatch: Boxed, Vector: Sorted},
	} {
		g := fig3Graph(t, graph.Options{Partitions: 2})
		stats, _ := Run(g, ssspProg{}, cfg)
		want := []float32{0, 1, 2, 2, 4}
		for v, d := range want {
			if g.Prop(uint32(v)) != d {
				t.Errorf("cfg %+v: dist[%d] = %v, want %v", cfg, v, g.Prop(uint32(v)), d)
			}
		}
		if stats.Iterations == 0 || stats.EdgesProcessed == 0 {
			t.Errorf("cfg %+v: empty stats %+v", cfg, stats)
		}
	}
}

func TestInDegreeFigure1(t *testing.T) {
	// Figure 1 graph: A->B, A->C, B->D, C->D. In-degrees: 0,1,1,2.
	c := sparse.NewCOO[float32](4, 4)
	c.Add(0, 1, 1)
	c.Add(0, 2, 1)
	c.Add(1, 3, 1)
	c.Add(2, 3, 1)
	g, err := graph.NewFromCOO[uint32, float32](c, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllActive()
	Run(g, countProg{dir: graph.Out}, Config{MaxIterations: 1})
	want := []uint32{0, 1, 1, 2}
	for v, d := range want {
		if g.Prop(uint32(v)) != d {
			t.Errorf("indegree[%d] = %d, want %d", v, g.Prop(uint32(v)), d)
		}
	}
}

func TestDirectionIn(t *testing.T) {
	// With Direction In, each vertex's messages travel backwards along its
	// in-edges, so vertex u accumulates one message per out-edge.
	c := sparse.NewCOO[float32](4, 4)
	c.Add(0, 1, 1)
	c.Add(0, 2, 1)
	c.Add(1, 3, 1)
	c.Add(2, 3, 1)
	g, err := graph.NewFromCOO[uint32, float32](c, graph.Options{Partitions: 2, Directions: graph.In})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllActive()
	Run(g, countProg{dir: graph.In}, Config{MaxIterations: 1})
	want := []uint32{2, 1, 1, 0} // out-degrees
	for v, d := range want {
		if g.Prop(uint32(v)) != d {
			t.Errorf("outdegree[%d] = %d, want %d", v, g.Prop(uint32(v)), d)
		}
	}
}

func TestDirectionBoth(t *testing.T) {
	c := sparse.NewCOO[float32](4, 4)
	c.Add(0, 1, 1)
	c.Add(0, 2, 1)
	c.Add(1, 3, 1)
	c.Add(2, 3, 1)
	g, err := graph.NewFromCOO[uint32, float32](c, graph.Options{Partitions: 2, Directions: graph.Both})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllActive()
	Run(g, countProg{dir: graph.Both}, Config{MaxIterations: 1})
	want := []uint32{2, 2, 2, 2} // total degree
	for v, d := range want {
		if g.Prop(uint32(v)) != d {
			t.Errorf("degree[%d] = %d, want %d", v, g.Prop(uint32(v)), d)
		}
	}
}

// alwaysActive runs forever unless capped: checks MaxIterations.
type alwaysActive struct{}

func (alwaysActive) SendMessage(v VertexID, p int64) (int64, bool)    { return p, true }
func (alwaysActive) ProcessMessage(m int64, _ float32, _ int64) int64 { return m }
func (alwaysActive) Reduce(a, b int64) int64                          { return a + b }
func (alwaysActive) Apply(r int64, _ VertexID, p *int64) bool         { *p += r; return true }
func (alwaysActive) Direction() graph.Direction                       { return graph.Out }

func TestMaxIterations(t *testing.T) {
	c := sparse.NewCOO[float32](2, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	g, err := graph.NewFromCOO[int64, float32](c, graph.Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllProps(1)
	g.SetAllActive()
	stats, _ := Run(g, alwaysActive{}, Config{MaxIterations: 5})
	if stats.Iterations != 5 {
		t.Errorf("Iterations = %d, want 5", stats.Iterations)
	}
}

func TestNoActiveVerticesTerminatesImmediately(t *testing.T) {
	g := fig3Graph(t, graph.Options{})
	g.ClearActive()
	stats, _ := Run(g, ssspProg{}, Config{})
	if stats.Iterations != 1 || stats.EdgesProcessed != 0 {
		t.Errorf("stats = %+v, want 1 empty iteration", stats)
	}
}

func TestBFSFrontierProgression(t *testing.T) {
	// Path 0->1->2->3: SSSP from 0 with unit weights needs exactly 4
	// supersteps (3 that improve + 1 that discovers no change... the last
	// improving superstep leaves vertex 3 active, so one more runs).
	c := sparse.NewCOO[float32](4, 4)
	c.Add(0, 1, 1)
	c.Add(1, 2, 1)
	c.Add(2, 3, 1)
	g, err := graph.NewFromCOO[float32, float32](c, graph.Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllProps(inf)
	g.SetProp(0, 0)
	g.SetActive(0)
	stats, _ := Run(g, ssspProg{}, Config{})
	if got := []float32{g.Prop(0), g.Prop(1), g.Prop(2), g.Prop(3)}; got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("distances = %v", got)
	}
	if stats.Iterations != 4 {
		t.Errorf("Iterations = %d, want 4", stats.Iterations)
	}
	// Frontier is one vertex per superstep: 4 messages total... the last
	// superstep sends from vertex 3 whose message improves nothing.
	if stats.MessagesSent != 4 {
		t.Errorf("MessagesSent = %d, want 4", stats.MessagesSent)
	}
}

// referenceBellmanFord computes ground-truth distances.
func referenceBellmanFord(n uint32, edges []sparse.Triple[float32], src uint32) []float32 {
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for i := uint32(0); i < n; i++ {
		changed := false
		for _, e := range edges {
			if dist[e.Row] != inf && dist[e.Row]+e.Val < dist[e.Col] {
				dist[e.Col] = dist[e.Row] + e.Val
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// Property: all engine configurations compute identical SSSP distances, and
// they match a reference Bellman-Ford.
func TestQuickConfigEquivalence(t *testing.T) {
	configs := []Config{
		{Threads: 1},
		{Threads: 2},
		{Threads: 2, Schedule: Static},
		{Threads: 1, Dispatch: Boxed},
		{Threads: 2, Dispatch: Boxed, Vector: Sorted},
	}
	f := func(seed uint64) bool {
		coo := gen.RMAT(gen.RMATOptions{Scale: 7, EdgeFactor: 4, Seed: seed, MaxWeight: 10})
		coo.RemoveSelfLoops()
		// Deduplicate (keeping the min weight) so the reference and the
		// graph build see the same edge set regardless of dedup policy.
		coo.SortRowMajor()
		coo.DedupSum(func(a, b float32) float32 { return min(a, b) })
		edges := make([]sparse.Triple[float32], len(coo.Entries))
		copy(edges, coo.Entries)
		want := referenceBellmanFord(coo.NRows, edges, 0)

		for _, cfg := range configs {
			for _, nparts := range []int{1, 3, 8} {
				c := sparse.NewCOO[float32](coo.NRows, coo.NCols)
				c.Entries = append([]sparse.Triple[float32](nil), edges...)
				g, err := graph.NewFromCOO[float32, float32](c, graph.Options{Partitions: nparts})
				if err != nil {
					t.Fatal(err)
				}
				g.SetAllProps(inf)
				g.SetProp(0, 0)
				g.SetActive(0)
				Run(g, ssspProg{}, cfg)
				for v := uint32(0); v < coo.NRows; v++ {
					if g.Prop(v) != want[v] {
						t.Logf("cfg %+v parts %d: dist[%d] = %v, want %v", cfg, nparts, v, g.Prop(v), want[v])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: stats are consistent — edges processed in one full-active
// superstep equal the edge count; applies never exceed vertices.
func TestQuickStatsConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		coo := gen.RMAT(gen.RMATOptions{Scale: 6, EdgeFactor: 4, Seed: seed})
		coo.RemoveSelfLoops()
		g, err := graph.NewFromCOO[uint32, float32](coo, graph.Options{Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		g.SetAllActive()
		stats, _ := Run(g, countProg{dir: graph.Out}, Config{MaxIterations: 1, Threads: 2})
		return stats.EdgesProcessed == g.NumEdges() &&
			stats.MessagesSent == int64(g.NumVertices()) &&
			stats.Applies <= int64(g.NumVertices()) &&
			stats.Iterations == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestSpMVSingleShot(t *testing.T) {
	c := sparse.NewCOO[float32](4, 4)
	c.Add(0, 1, 1)
	c.Add(0, 2, 1)
	c.Add(1, 3, 1)
	c.Add(2, 3, 1)
	g, err := graph.NewFromCOO[uint32, float32](c, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := sparse.NewVector[uint32](4)
	for v := uint32(0); v < 4; v++ {
		x.Set(v, 1)
	}
	y := SpMV(g, x, countProg{dir: graph.Out}, Config{})
	want := []uint32{0, 1, 1, 2}
	for v, d := range want {
		got, ok := y.GetChecked(uint32(v))
		if d == 0 {
			if ok {
				t.Errorf("y[%d] present, want absent", v)
			}
			continue
		}
		if !ok || got != d {
			t.Errorf("y[%d] = %d (present %v), want %d", v, got, ok, d)
		}
	}
}

func TestChunkBounds(t *testing.T) {
	for _, c := range []struct{ n, k int }{{0, 4}, {1, 4}, {64, 1}, {100, 3}, {1000, 7}, {64, 64}} {
		b := chunkBounds(c.n, c.k)
		if b[0] != 0 || b[len(b)-1] != uint32(c.n) {
			t.Errorf("chunkBounds(%d,%d) endpoints: %v", c.n, c.k, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Errorf("chunkBounds(%d,%d) not monotone: %v", c.n, c.k, b)
			}
			if i < len(b)-1 && b[i]%64 != 0 {
				t.Errorf("chunkBounds(%d,%d) interior bound %d unaligned", c.n, c.k, b[i])
			}
		}
	}
}
