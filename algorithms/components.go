package algorithms

import (
	"context"
	"slices"

	"graphmat"
)

// CCProgram is a label-propagation connected-components vertex program (an
// extension beyond the paper's five algorithms, exercising the same min-
// plus traversal pattern as BFS): every vertex broadcasts its component
// label, receivers keep the minimum, and the run converges when labels stop
// changing.
type CCProgram struct{}

// SendMessage broadcasts the current label.
func (CCProgram) SendMessage(_ graphmat.VertexID, prop uint32) (uint32, bool) { return prop, true }

// ProcessMessage passes the label through.
func (CCProgram) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m }

// Reduce keeps the smaller label.
func (CCProgram) Reduce(a, b uint32) uint32 { return min(a, b) }

// Apply adopts a smaller label and reactivates.
func (CCProgram) Apply(r uint32, _ graphmat.VertexID, prop *uint32) bool {
	if r < *prop {
		*prop = r
		return true
	}
	return false
}

// Direction scatters along out-edges of the symmetrized graph.
func (CCProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares that ProcessMessage never reads the
// destination property, enabling the backend's fast path.
func (CCProgram) ProcessIgnoresDst() {}

// NewCCGraph builds the connected-components graph: self-loops removed and
// the edge set symmetrized so components are those of the underlying
// undirected graph. The input is consumed.
func NewCCGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[uint32, float32], error) {
	return graphmat.New[uint32](preprocess(adj, updSymmetric), graphmat.Options{Partitions: partitions})
}

// NewCCStore is NewCCGraph as a versioned store: the same preprocessing and
// epoch-0 graph, plus live edge updates via ApplyEdges.
func NewCCStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[uint32, float32], error) {
	return graphmat.NewStore[uint32](preprocess(adj, updSymmetric), graphmat.Options{Partitions: partitions})
}

// RunConnectedComponents labels every vertex with the smallest vertex id in
// its component, on a graph built by NewCCGraph. Options and the
// stopped-run contract as in RunBFS (workspace type
// *graphmat.Workspace[uint32, uint32]); a stopped run returns the partially
// propagated labels.
func RunConnectedComponents(ctx context.Context, g *graphmat.Graph[uint32, float32], opts ...Option) ([]uint32, graphmat.Stats, error) {
	set := newSettings(opts)
	ws, err := workspaceFor(set, g.NumVertices(), graphmat.NewWorkspace[uint32, uint32])
	if err != nil {
		return nil, graphmat.Stats{}, err
	}
	g.InitProps(func(v uint32) uint32 { return v })
	g.SetAllActive()
	stats, err := graphmat.RunContext(ctx, g, CCProgram{}, set.cfg, ws, newSession(set.obs).options()...)
	return slices.Clone(g.Props()), stats, err
}

// DegreeProgram counts arriving messages: run for one superstep with all
// vertices active it computes in-degrees (the Figure 1 SpMV example made a
// vertex program).
type DegreeProgram struct {
	// Dir selects which degree is computed: graphmat.Out counts in-degree
	// (messages travel along out-edges), graphmat.In counts out-degree,
	// graphmat.Both counts total degree.
	Dir graphmat.Direction
}

// SendMessage emits a unit count.
func (DegreeProgram) SendMessage(_ graphmat.VertexID, _ uint32) (uint32, bool) { return 1, true }

// ProcessMessage passes the count through.
func (DegreeProgram) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m }

// Reduce sums counts.
func (DegreeProgram) Reduce(a, b uint32) uint32 { return a + b }

// Apply stores the tally.
func (DegreeProgram) Apply(r uint32, _ graphmat.VertexID, prop *uint32) bool {
	*prop = r
	return false
}

// Direction reports the configured scatter direction.
func (p DegreeProgram) Direction() graphmat.Direction {
	if p.Dir == 0 {
		return graphmat.Out
	}
	return p.Dir
}

// ProcessIgnoresDst declares that ProcessMessage never reads the
// destination property, enabling the backend's fast path.
func (DegreeProgram) ProcessIgnoresDst() {}

// Degrees runs DegreeProgram for one superstep and returns the per-vertex
// counts.
func Degrees(g *graphmat.Graph[uint32, float32], dir graphmat.Direction, cfg graphmat.Config) ([]uint32, graphmat.Stats) {
	g.SetAllProps(0)
	g.SetAllActive()
	cfg.MaxIterations = 1
	stats, _ := graphmat.Run(g, DegreeProgram{Dir: dir}, cfg) // contextless Run cannot fail
	return slices.Clone(g.Props()), stats
}
