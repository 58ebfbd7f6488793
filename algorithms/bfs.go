package algorithms

import (
	"context"
	"math"
	"slices"

	"graphmat"
)

// Unreached marks a vertex BFS/SSSP never visited.
const Unreached = math.MaxUint32

// BFSProgram implements the paper's equation (2): Distance(v) =
// min(Distance(v), t+1), becoming active on change. Message: the sender's
// distance. Process: message+1. Reduce: min. Apply: min with activation.
type BFSProgram struct{}

// SendMessage emits the vertex's current distance.
func (BFSProgram) SendMessage(_ graphmat.VertexID, prop uint32) (uint32, bool) { return prop, true }

// ProcessMessage advances the frontier one hop.
func (BFSProgram) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m + 1 }

// Reduce keeps the smaller distance.
func (BFSProgram) Reduce(a, b uint32) uint32 { return min(a, b) }

// Apply adopts an improved distance and reactivates the vertex.
func (BFSProgram) Apply(r uint32, _ graphmat.VertexID, prop *uint32) bool {
	if r < *prop {
		*prop = r
		return true
	}
	return false
}

// Mul is ProcessMessage as a destination-free semiring multiply: the hop
// count never reads the destination, so one edge traversal can serve every
// source column of a multi-source block run.
func (BFSProgram) Mul(m uint32, _ float32) uint32 { return m + 1 }

// Add is Reduce under its semiring name.
func (BFSProgram) Add(a, b uint32) uint32 { return min(a, b) }

// Identity is the fold's neutral element: an unreached distance.
func (BFSProgram) Identity() uint32 { return Unreached }

// Direction scatters along out-edges (BFS inputs are symmetrized, §5.1).
func (BFSProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares that ProcessMessage never reads the
// destination property, enabling the backend's fast path.
func (BFSProgram) ProcessIgnoresDst() {}

// NewBFSGraph builds the BFS property graph, applying the paper's
// preprocessing: self-loops removed and the edge set symmetrized ("we
// replicate edges ... to obtain a symmetric graph"). The input is consumed.
func NewBFSGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[uint32, float32], error) {
	return graphmat.New[uint32](preprocess(adj, updSymmetric), graphmat.Options{Partitions: partitions})
}

// NewBFSStore is NewBFSGraph as a versioned store: the same preprocessing
// and epoch-0 graph, plus live edge updates via ApplyEdges.
func NewBFSStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[uint32, float32], error) {
	return graphmat.NewStore[uint32](preprocess(adj, updSymmetric), graphmat.Options{Partitions: partitions})
}

// RunBFS computes hop distances from root on a graph built by NewBFSGraph;
// unreachable vertices report Unreached. Options: WithConfig/WithThreads/
// WithMode, WithWorkspace (*graphmat.Workspace[uint32, uint32]),
// WithObserver (one report per superstep). A root outside the graph is an
// error. A canceled run returns the partial distances reached so far with
// the stop cause; Stats.Reason classifies the ending.
func RunBFS(ctx context.Context, g *graphmat.Graph[uint32, float32], root uint32, opts ...Option) ([]uint32, graphmat.Stats, error) {
	set := newSettings(opts)
	if err := checkSource(root, g.NumVertices(), "source"); err != nil {
		return nil, graphmat.Stats{}, err
	}
	ws, err := workspaceFor(set, g.NumVertices(), graphmat.NewWorkspace[uint32, uint32])
	if err != nil {
		return nil, graphmat.Stats{}, err
	}
	g.SetAllProps(Unreached)
	g.SetProp(root, 0)
	g.ClearActive()
	g.SetActive(root)
	stats, err := graphmat.RunContext(ctx, g, BFSProgram{}, set.cfg, ws, newSession(set.obs).options()...)
	return slices.Clone(g.Props()), stats, err
}
