package algorithms

import (
	"context"
	"math"
	"slices"

	"graphmat"
)

// InfDist marks a vertex SSSP never reached.
const InfDist = float32(math.MaxFloat32)

// SSSPProgram is the program of the paper's appendix (and Figure 3), a
// frontier Bellman-Ford: message = current distance, process = message +
// edge weight, reduce = min, apply = min with activation on improvement
// (equation (8), updating only neighbors of vertices that changed).
type SSSPProgram struct{}

// SendMessage emits the vertex's current distance.
func (SSSPProgram) SendMessage(_ graphmat.VertexID, prop float32) (float32, bool) {
	return prop, true
}

// ProcessMessage extends the path along one edge.
func (SSSPProgram) ProcessMessage(m float32, w float32, _ float32) float32 { return m + w }

// Reduce keeps the shorter path.
func (SSSPProgram) Reduce(a, b float32) float32 { return min(a, b) }

// Apply adopts an improved distance and reactivates the vertex.
func (SSSPProgram) Apply(r float32, _ graphmat.VertexID, prop *float32) bool {
	if r < *prop {
		*prop = r
		return true
	}
	return false
}

// Mul is ProcessMessage as a destination-free semiring multiply (the
// (min, +) tropical semiring), qualifying SSSP for multi-source block runs.
func (SSSPProgram) Mul(m float32, w float32) float32 { return m + w }

// Add is Reduce under its semiring name.
func (SSSPProgram) Add(a, b float32) float32 { return min(a, b) }

// Identity is the fold's neutral element: an unreachable distance.
func (SSSPProgram) Identity() float32 { return InfDist }

// Direction performs path traversals only via out-edges (appendix:
// "order = OUT_EDGES").
func (SSSPProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares that ProcessMessage never reads the
// destination property, enabling the backend's fast path.
func (SSSPProgram) ProcessIgnoresDst() {}

// ReducesByMinPlusF32 declares the float32 (min, +) tropical fold, routing
// the scalar and block column folds through the kernels layer's fused
// path-fold primitives.
func (SSSPProgram) ReducesByMinPlusF32() {}

// NewSSSPGraph builds the SSSP property graph: self-loops removed, directed
// edges kept as-is with their weights (§5.1). The input is consumed.
func NewSSSPGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[float32, float32], error) {
	return graphmat.New[float32](preprocess(adj, updDirected), graphmat.Options{Partitions: partitions})
}

// NewSSSPStore is NewSSSPGraph as a versioned store: the same preprocessing
// and epoch-0 graph, plus live edge updates via ApplyEdges.
func NewSSSPStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[float32, float32], error) {
	return graphmat.NewStore[float32](preprocess(adj, updDirected), graphmat.Options{Partitions: partitions})
}

// RunSSSP computes shortest-path distances from src on a graph built by
// NewSSSPGraph; unreachable vertices report InfDist. Options and the
// stopped-run contract as in RunBFS (workspace type
// *graphmat.Workspace[float32, float32]); a stopped run returns the best
// distances found so far.
func RunSSSP(ctx context.Context, g *graphmat.Graph[float32, float32], src uint32, opts ...Option) ([]float32, graphmat.Stats, error) {
	set := newSettings(opts)
	if err := checkSource(src, g.NumVertices(), "source"); err != nil {
		return nil, graphmat.Stats{}, err
	}
	ws, err := workspaceFor(set, g.NumVertices(), graphmat.NewWorkspace[float32, float32])
	if err != nil {
		return nil, graphmat.Stats{}, err
	}
	g.SetAllProps(InfDist)
	g.SetProp(src, 0)
	g.ClearActive()
	g.SetActive(src)
	stats, err := graphmat.RunContext(ctx, g, SSSPProgram{}, set.cfg, ws, newSession(set.obs).options()...)
	return slices.Clone(g.Props()), stats, err
}
