package algorithms

import (
	"context"
	"sort"

	"graphmat"
)

// TCVertex is the triangle-counting vertex state: the sorted list of
// in-neighbor ids collected in phase one, and this vertex's triangle tally
// from phase two.
type TCVertex struct {
	Nbrs  []uint32
	Count int64
}

// tcPhase1 is the paper's first TC vertex program (§4.2): "each vertex sends
// out its id, and at the end stores a list of all its incoming neighbor
// id's in its local state".
type tcPhase1 struct{}

func (tcPhase1) SendMessage(v graphmat.VertexID, _ TCVertex) (uint32, bool) { return v, true }

func (tcPhase1) ProcessMessage(m uint32, _ float32, _ TCVertex) []uint32 { return []uint32{m} }

func (tcPhase1) Reduce(a, b []uint32) []uint32 { return append(a, b...) }

func (tcPhase1) Apply(r []uint32, _ graphmat.VertexID, prop *TCVertex) bool {
	sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
	prop.Nbrs = r
	return false
}

func (tcPhase1) Direction() graphmat.Direction { return graphmat.Out }

// tcPhase2 is the second program: "each vertex simply sends out this list to
// all neighbors, and each vertex intersects each incoming list with its own
// list to find triangles". The intersection reads the *destination* vertex
// state in ProcessMessage — the expressiveness GraphMat adds over pure
// semiring frameworks (§4.2).
type tcPhase2 struct{}

func (tcPhase2) SendMessage(_ graphmat.VertexID, prop TCVertex) ([]uint32, bool) {
	if len(prop.Nbrs) == 0 {
		return nil, false
	}
	return prop.Nbrs, true
}

func (tcPhase2) ProcessMessage(m []uint32, _ float32, dst TCVertex) int64 {
	return intersectCount(m, dst.Nbrs)
}

func (tcPhase2) Reduce(a, b int64) int64 { return a + b }

func (tcPhase2) Apply(r int64, _ graphmat.VertexID, prop *TCVertex) bool {
	prop.Count = r
	return false
}

func (tcPhase2) Direction() graphmat.Direction { return graphmat.Out }

// intersectCount counts common elements of two ascending-sorted slices.
func intersectCount(a, b []uint32) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// NewTriangleGraph builds the TC property graph with the paper's
// preprocessing (§5.1): self-loops removed, edges symmetrized, then the
// lower triangle discarded so the graph is a DAG with every edge u→v
// satisfying u < v. The input is consumed.
func NewTriangleGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[TCVertex, float32], error) {
	return graphmat.New[TCVertex](preprocess(adj, updUpperTriangle), graphmat.Options{Partitions: partitions})
}

// NewTriangleStore is NewTriangleGraph as a versioned store: the same
// preprocessing and epoch-0 graph, plus live edge updates via ApplyEdges.
func NewTriangleStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[TCVertex, float32], error) {
	return graphmat.NewStore[TCVertex](preprocess(adj, updUpperTriangle), graphmat.Options{Partitions: partitions})
}

// TriangleScratch is the reusable engine scratch for the two-phase triangle
// pipeline: the phases carry different message types, so each needs its own
// workspace.
type TriangleScratch struct {
	Phase1 *graphmat.Workspace[uint32, []uint32]
	Phase2 *graphmat.Workspace[[]uint32, int64]
}

// NewTriangleScratch allocates scratch for n-vertex triangle graphs.
func NewTriangleScratch(n int, kind graphmat.VectorKind) *TriangleScratch {
	return &TriangleScratch{
		Phase1: graphmat.NewWorkspace[uint32, []uint32](n, kind),
		Phase2: graphmat.NewWorkspace[[]uint32, int64](n, kind),
	}
}

// Reset clears both phase workspaces (pool recycling).
func (s *TriangleScratch) Reset() {
	s.Phase1.Reset()
	s.Phase2.Reset()
}

// RunTriangleCount runs the two-phase vertex-program pipeline on a graph
// built by NewTriangleGraph and returns the number of triangles. Vertex
// state is reinitialized, so the graph is reusable across runs. Options: the
// engine options; the workspace type is *TriangleScratch. The observer sees
// one report per phase (the pipeline is two one-superstep vertex programs).
// A stopped run returns count 0 with the stop cause.
func RunTriangleCount(ctx context.Context, g *graphmat.Graph[TCVertex, float32], opts ...Option) (int64, graphmat.Stats, error) {
	set := newSettings(opts)
	scratch, err := workspaceFor(set, g.NumVertices(), NewTriangleScratch)
	if err != nil {
		return 0, graphmat.Stats{}, err
	}
	cfg := set.cfg
	g.SetAllProps(TCVertex{})
	g.SetAllActive()
	cfg.MaxIterations = 1
	sess := newSession(set.obs)
	stats, err := graphmat.RunContext(ctx, g, tcPhase1{}, cfg, scratch.Phase1, sess.options()...)
	if err != nil {
		return 0, stats, err
	}

	g.SetAllActive()
	s2, err := graphmat.RunContext(ctx, g, tcPhase2{}, cfg, scratch.Phase2, sess.options()...)
	accumulate(&stats, s2)
	if err != nil {
		stats.Reason = s2.Reason
		return 0, stats, err
	}
	// Both fixed one-superstep phases ran to completion: the pipeline is
	// done, which for this driver is convergence.
	stats.Reason = graphmat.Converged

	var total int64
	for _, p := range g.Props() {
		total += p.Count
	}
	return total, stats, nil
}
