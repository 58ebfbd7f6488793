package algorithms

import (
	"context"
	"slices"

	"graphmat"
)

// ReachabilityProgram is directed reachability over the boolean (OR, AND)
// semiring: a vertex's property is 1 once any path from the source hits it,
// 0 otherwise. It is BFS with the hop count dropped — the first workload
// registered purely through the semiring surface rather than a numeric
// recurrence, and the cheapest multi-source block citizen (one uint32 per
// (vertex, source) pair, convergence as soon as the reachable set closes).
type ReachabilityProgram struct{}

// SendMessage emits the reached flag; only reached vertices are ever active.
func (ReachabilityProgram) SendMessage(_ graphmat.VertexID, prop uint32) (uint32, bool) {
	return prop, true
}

// ProcessMessage is the semiring AND: reached × edge-exists = reached.
func (ReachabilityProgram) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m }

// Reduce is the semiring OR.
func (ReachabilityProgram) Reduce(a, b uint32) uint32 { return a | b }

// Apply adopts reachability exactly once per vertex; a vertex already
// reached never reactivates, which is what terminates the traversal.
func (ReachabilityProgram) Apply(r uint32, _ graphmat.VertexID, prop *uint32) bool {
	if r != 0 && *prop == 0 {
		*prop = 1
		return true
	}
	return false
}

// Mul is ProcessMessage as a destination-free semiring multiply.
func (ReachabilityProgram) Mul(m uint32, _ float32) uint32 { return m }

// Add is Reduce under its semiring name.
func (ReachabilityProgram) Add(a, b uint32) uint32 { return a | b }

// Identity is the OR fold's neutral element.
func (ReachabilityProgram) Identity() uint32 { return 0 }

// Direction follows out-edges: directed reachability.
func (ReachabilityProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares the fast path.
func (ReachabilityProgram) ProcessIgnoresDst() {}

// NewReachabilityGraph builds the reachability property graph: self-loops
// removed, directed edges kept as-is. The input is consumed.
func NewReachabilityGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[uint32, float32], error) {
	return graphmat.New[uint32](preprocess(adj, updDirected), graphmat.Options{Partitions: partitions})
}

// NewReachabilityStore is NewReachabilityGraph as a versioned store.
func NewReachabilityStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[uint32, float32], error) {
	return graphmat.NewStore[uint32](preprocess(adj, updDirected), graphmat.Options{Partitions: partitions})
}

// RunReachability computes the set of vertices reachable from src along
// directed edges: out[v] is 1 if reachable, 0 otherwise (src itself is 1).
// Options: WithConfig/WithThreads/WithMode, WithWorkspace
// (*graphmat.Workspace[uint32, uint32]), WithObserver.
func RunReachability(ctx context.Context, g *graphmat.Graph[uint32, float32], src uint32, opts ...Option) ([]uint32, graphmat.Stats, error) {
	set := newSettings(opts)
	if err := checkSource(src, g.NumVertices(), "source"); err != nil {
		return nil, graphmat.Stats{}, err
	}
	ws, err := workspaceFor(set, g.NumVertices(), graphmat.NewWorkspace[uint32, uint32])
	if err != nil {
		return nil, graphmat.Stats{}, err
	}
	g.SetAllProps(0)
	g.SetProp(src, 1)
	g.ClearActive()
	g.SetActive(src)
	stats, err := graphmat.RunContext(ctx, g, ReachabilityProgram{}, set.cfg, ws, newSession(set.obs).options()...)
	return slices.Clone(g.Props()), stats, err
}
