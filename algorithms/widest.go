package algorithms

import (
	"context"
	"math"
	"slices"

	"graphmat"
)

// WidestSourceCap is the source's own path width: effectively unbounded.
// math.MaxFloat32 rather than +Inf so results survive JSON encoding.
const WidestSourceCap = float32(math.MaxFloat32)

// WidestPathProgram computes widest (bottleneck) paths over the (max, min)
// semiring: the width of a path is its narrowest edge, and a vertex's
// property is the widest width over all paths from the source. Unreachable
// vertices stay at 0. Like SSSP it is a frontier fixpoint — a vertex
// reactivates whenever its best width improves.
type WidestPathProgram struct{}

// SendMessage emits the vertex's current best width.
func (WidestPathProgram) SendMessage(_ graphmat.VertexID, prop float32) (float32, bool) {
	return prop, true
}

// ProcessMessage narrows the path by the edge's capacity.
func (WidestPathProgram) ProcessMessage(m float32, w float32, _ float32) float32 { return min(m, w) }

// Reduce keeps the wider path.
func (WidestPathProgram) Reduce(a, b float32) float32 { return max(a, b) }

// Apply adopts an improved width and reactivates the vertex.
func (WidestPathProgram) Apply(r float32, _ graphmat.VertexID, prop *float32) bool {
	if r > *prop {
		*prop = r
		return true
	}
	return false
}

// Mul is ProcessMessage as a destination-free semiring multiply.
func (WidestPathProgram) Mul(m float32, w float32) float32 { return min(m, w) }

// Add is Reduce under its semiring name.
func (WidestPathProgram) Add(a, b float32) float32 { return max(a, b) }

// Identity is the max fold's neutral element: zero width.
func (WidestPathProgram) Identity() float32 { return 0 }

// Direction follows out-edges, like SSSP.
func (WidestPathProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares the fast path.
func (WidestPathProgram) ProcessIgnoresDst() {}

// ReducesByMaxMinF32 declares the float32 (max, min) bottleneck fold,
// routing the scalar and block column folds through the kernels layer's
// fused path-fold primitives.
func (WidestPathProgram) ReducesByMaxMinF32() {}

// NewWidestPathGraph builds the widest-path property graph: self-loops
// removed, directed weighted edges kept as-is (weights are capacities). The
// input is consumed.
func NewWidestPathGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[float32, float32], error) {
	return graphmat.New[float32](preprocess(adj, updDirected), graphmat.Options{Partitions: partitions})
}

// NewWidestPathStore is NewWidestPathGraph as a versioned store.
func NewWidestPathStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[float32, float32], error) {
	return graphmat.NewStore[float32](preprocess(adj, updDirected), graphmat.Options{Partitions: partitions})
}

// RunWidestPath computes bottleneck path widths from src: out[v] is the
// maximum over paths src→v of the minimum edge weight along the path, 0 for
// unreachable vertices and WidestSourceCap at src itself. Options:
// WithConfig/WithThreads/WithMode, WithWorkspace
// (*graphmat.Workspace[float32, float32]), WithObserver.
func RunWidestPath(ctx context.Context, g *graphmat.Graph[float32, float32], src uint32, opts ...Option) ([]float32, graphmat.Stats, error) {
	set := newSettings(opts)
	if err := checkSource(src, g.NumVertices(), "source"); err != nil {
		return nil, graphmat.Stats{}, err
	}
	ws, err := workspaceFor(set, g.NumVertices(), graphmat.NewWorkspace[float32, float32])
	if err != nil {
		return nil, graphmat.Stats{}, err
	}
	g.SetAllProps(0)
	g.SetProp(src, WidestSourceCap)
	g.ClearActive()
	g.SetActive(src)
	stats, err := graphmat.RunContext(ctx, g, WidestPathProgram{}, set.cfg, ws, newSession(set.obs).options()...)
	return slices.Clone(g.Props()), stats, err
}
