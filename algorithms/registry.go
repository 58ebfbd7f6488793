package algorithms

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"graphmat"
)

// This file is the package's named-constructor table: every ready-made
// algorithm registered under a stable name with a declared parameter schema,
// a graph builder (the algorithm-specific preprocessing of §5.1) and a
// uniform result shape. The analytics server dispatches HTTP queries through
// it and the graphmat CLI resolves -algorithm through the same table, so the
// two front ends can never drift apart.

// Params holds the parsed parameters of one registry run. Fields an
// algorithm does not declare in its Spec are rejected by ParseParams, not
// silently ignored.
type Params struct {
	// Source is the start vertex for traversals (bfs, sssp).
	Source uint32
	// Sources is the personalization set for ppr; empty means {Source}.
	Sources []uint32
	// Iterations caps iterative algorithms (pagerank, ppr, hits); 0 means
	// the algorithm's default.
	Iterations int
	// Tolerance is the convergence threshold for pagerank/ppr.
	Tolerance float64
	// RestartProb is the teleport probability for pagerank/ppr; 0 means 0.15.
	RestartProb float64
	// Threads is the engine worker count; 0 means GOMAXPROCS. Results are
	// deterministic across thread counts (partitions own disjoint output
	// ranges and reduce in a fixed order), so Threads is a performance knob,
	// not a semantic one.
	Threads int
	// Mode selects the engine's SpMV kernel (Auto, Pull or Push). Like
	// Threads it is a performance knob: all modes produce bit-identical
	// results — the engine's differential suite asserts it.
	Mode graphmat.Mode
}

// Key returns a canonical cache key for the parameters. Threads and Mode are
// excluded: neither can change the result, only how fast it arrives.
func (p Params) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "src=%d;srcs=%v;it=%d;tol=%g;r=%g", p.Source, p.Sources, p.Iterations, p.Tolerance, p.RestartProb)
	return b.String()
}

func (p Params) config() graphmat.Config {
	return graphmat.Config{Threads: p.Threads, Mode: p.Mode}
}

// Result is the uniform output of a registry run: a per-vertex value series
// (rank, distance, component label), optional named extra series (HITS hub
// and authority), an optional scalar (triangle count), the engine stats, and
// the property-graph epoch the run was pinned to.
type Result struct {
	Values []float64            `json:"values,omitempty"`
	Series map[string][]float64 `json:"series,omitempty"`
	Count  *int64               `json:"count,omitempty"`
	Stats  graphmat.Stats       `json:"stats"`
	// Epoch is the snapshot version the run executed against: 0 for the
	// as-built graph, +1 per update batch applied to the instance before the
	// run started. A run in flight keeps its epoch whatever updates land
	// meanwhile.
	Epoch uint64 `json:"epoch"`
}

// ParamKind is the type of one declared parameter.
type ParamKind int

const (
	// Uint is a non-negative integer parameter.
	Uint ParamKind = iota
	// Float is a floating-point parameter.
	Float
	// UintList is a list of non-negative integers.
	UintList
)

// String names the kind for API listings.
func (k ParamKind) String() string {
	switch k {
	case Uint:
		return "uint"
	case Float:
		return "float"
	case UintList:
		return "uint_list"
	}
	return "unknown"
}

// ParamSpec declares one parameter an algorithm accepts.
type ParamSpec struct {
	Name string    `json:"name"`
	Kind ParamKind `json:"-"`
	Desc string    `json:"desc"`
}

// Instance is an algorithm bound to a built property graph, ready to run
// queries. The property graph is versioned: ApplyUpdates publishes a new
// epoch, runs pin the epoch current when they start, and a run in flight is
// never disturbed by updates landing under it. Run mutates the pinned
// snapshot's vertex state, so it is NOT safe for concurrent use on one
// Instance; callers serialize (the server holds a per-instance lock).
// ApplyUpdates itself may race freely with runs — that is the point.
type Instance interface {
	// Run executes the algorithm. scratch, if non-nil, must be a value
	// returned by NewScratch on an instance over the same graph; nil
	// allocates fresh scratch for this run. It is RunContext without a
	// context or observer.
	Run(p Params, scratch any) (Result, error)
	// RunContext executes the algorithm under ctx: cancellation and
	// deadlines stop the engine cooperatively mid-run, and obs, when
	// non-nil, receives one progress report per superstep. A stopped run
	// returns the error alongside a Result whose Stats.Reason records the
	// stop cause.
	RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error)
	// RunBatch executes the algorithm once per source in p.Sources (falling
	// back to {p.Source} when empty) as one multi-source block run on one
	// pinned snapshot: per-source results are bit-identical to the
	// corresponding single-source Run calls, but chunks of up to
	// graphmat.MaxBlockSources sources share each adjacency sweep.
	// Algorithms with no source parameter return ErrBatchUnsupported (their
	// Spec says Batchable: false). Like Run, not safe for concurrent use on
	// one Instance.
	RunBatch(ctx context.Context, p Params, obs Observer) (BatchResult, error)
	// RunBatchPinned is RunBatch against a snapshot the caller already
	// pinned with AcquirePin: the run executes on exactly that epoch's
	// edge set, whatever updates landed since the pin was taken. The pin
	// stays owned by the caller (Release after the call returns);
	// algorithms with no source parameter return ErrBatchUnsupported.
	RunBatchPinned(ctx context.Context, pin Pin, p Params, obs Observer) (BatchResult, error)
	// AcquirePin pins the instance's current property-graph snapshot and
	// hands ownership to the caller: exactly one Release per pin. The
	// serving layer's admission batcher pins at admission time so a batch
	// window that straddles an update still answers every waiter from the
	// epoch its batch key promised.
	AcquirePin() Pin
	// NewScratch allocates the reusable engine workspace for this
	// (algorithm, graph) pair, for callers that pool scratch across runs.
	NewScratch() any
	// NumVertices reports the built property graph's vertex count.
	NumVertices() uint32
	// NumEdges reports the current snapshot's property edge count.
	NumEdges() int64
	// ApplyUpdates applies a batch of RAW edge updates, translated through
	// the algorithm's preprocessing (self-loop removal, symmetrization,
	// upper-triangle restriction), and publishes a new snapshot epoch.
	// lookup must reflect the raw edge set AFTER the batch; algorithms whose
	// preprocessing keeps edges directed ignore it and accept nil.
	ApplyUpdates(batch []EdgeUpdate, lookup EdgeLookup) (UpdateResult, error)
	// Epoch reports the property graph's current snapshot epoch.
	Epoch() uint64
	// StoreStats exposes the versioned store's counters (overlay size,
	// compactions, pinned snapshots).
	StoreStats() graphmat.StoreStats
	// SnapImage captures a persistable GMATSNAP image of the property
	// graph's current state, compacting any pending overlay first. tag is
	// the serving layer's consistency mark (the raw master-copy epoch the
	// image reflects), stored verbatim.
	SnapImage(tag uint64) (*graphmat.SnapImage, error)
	// OnCompact registers the property-graph store's persistent-mode hook:
	// fn runs synchronously after every compaction publish, before the
	// write that triggered it returns. See graphmat.Store.OnCompact for
	// the constraints on fn.
	OnCompact(fn func(epoch uint64))
}

// Pin is one pinned property-graph snapshot, held across calls so a run
// can be scheduled now and executed later against the same epoch. Epoch
// reports the pinned version; Release discharges the pin (exactly once).
// Values are produced by Instance.AcquirePin and consumed by
// Instance.RunBatchPinned.
type Pin interface {
	Epoch() uint64
	Release()
}

// Spec is one registry entry.
type Spec struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	Params      []ParamSpec `json:"params"`
	// Batchable marks algorithms whose Instance supports multi-source
	// RunBatch (source-parameterized traversals and personalized ranking);
	// the serving layer only coalesces requests for batchable algorithms.
	Batchable bool `json:"batchable"`
	// Build constructs the algorithm's property graph from adjacency
	// triples, applying the algorithm's preprocessing. The input is
	// consumed (sorted, deduplicated, possibly symmetrized in place); pass
	// a clone to keep the original.
	Build func(adj *graphmat.COO[float32], partitions int) (Instance, error) `json:"-"`
	// Open rebuilds the algorithm's instance from a persisted snapshot
	// image of its property graph (written by Instance.SnapImage) without
	// re-running Build's preprocessing or any partition construction: the
	// image already IS the preprocessed, partitioned graph. This is the
	// instant-restart path; results must be bit-identical to an instance
	// Built from the original input — the snapshot differential suite
	// asserts it for every registered algorithm.
	Open func(img *graphmat.SnapImage) (Instance, error) `json:"-"`
}

// ParseParams validates raw key/value parameters (JSON-decoded: numbers as
// float64, lists as []any) against the spec's declared schema. Unknown keys
// error. "threads" and "mode" are accepted for every algorithm — both are
// engine performance knobs that cannot change a result; "threads" is
// clamped to GOMAXPROCS.
func (s Spec) ParseParams(raw map[string]any) (Params, error) {
	var p Params
	for key, val := range raw {
		if key == "threads" {
			n, err := asUint(val)
			if err != nil {
				return p, fmt.Errorf("parameter threads: %w", err)
			}
			// Results do not depend on Threads, so clamping changes no
			// answer; it keeps a client from spawning a permanent
			// shared worker pool wider than the machine.
			p.Threads = int(min(n, uint64(runtime.GOMAXPROCS(0))))
			continue
		}
		if key == "mode" {
			name, ok := val.(string)
			if !ok {
				return p, fmt.Errorf("parameter mode: expected a string (auto, pull or push), got %T", val)
			}
			mode, err := graphmat.ParseMode(name)
			if err != nil {
				return p, fmt.Errorf("parameter mode: %w", err)
			}
			p.Mode = mode
			continue
		}
		var spec *ParamSpec
		for i := range s.Params {
			if s.Params[i].Name == key {
				spec = &s.Params[i]
				break
			}
		}
		if spec == nil {
			return p, fmt.Errorf("algorithm %s does not accept parameter %q", s.Name, key)
		}
		switch spec.Kind {
		case Uint:
			n, err := asUint(val)
			if err != nil {
				return p, fmt.Errorf("parameter %s: %w", key, err)
			}
			switch key {
			case "source":
				p.Source = uint32(n)
			case "iters":
				p.Iterations = int(n)
			}
		case Float:
			f, err := asFloat(val)
			if err != nil {
				return p, fmt.Errorf("parameter %s: %w", key, err)
			}
			switch key {
			case "tolerance":
				p.Tolerance = f
			case "restart":
				p.RestartProb = f
			}
		case UintList:
			list, ok := val.([]any)
			if !ok {
				return p, fmt.Errorf("parameter %s: expected a list of vertex ids", key)
			}
			for _, item := range list {
				n, err := asUint(item)
				if err != nil {
					return p, fmt.Errorf("parameter %s: %w", key, err)
				}
				p.Sources = append(p.Sources, uint32(n))
			}
		}
	}
	return p, nil
}

// asUint parses a non-negative integer no larger than math.MaxUint32 (the
// engine's vertex-id and iteration domain), so narrowing to uint32/int below
// can never silently truncate.
func asUint(v any) (uint64, error) {
	switch x := v.(type) {
	case float64:
		if x < 0 || x != float64(uint64(x)) {
			return 0, fmt.Errorf("expected a non-negative integer, got %v", x)
		}
		if x > math.MaxUint32 {
			return 0, fmt.Errorf("value %v exceeds the maximum of %d", x, uint64(math.MaxUint32))
		}
		return uint64(x), nil
	case int:
		if x < 0 {
			return 0, fmt.Errorf("expected a non-negative integer, got %v", x)
		}
		if uint64(x) > math.MaxUint32 {
			return 0, fmt.Errorf("value %v exceeds the maximum of %d", x, uint64(math.MaxUint32))
		}
		return uint64(x), nil
	default:
		return 0, fmt.Errorf("expected a non-negative integer, got %T", v)
	}
}

func asFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("expected a number, got %T", v)
	}
}

var registry = map[string]Spec{}

// Register adds a spec to the registry; duplicate names panic (registration
// happens at init time).
func Register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("algorithms: duplicate registration of " + s.Name)
	}
	registry[s.Name] = s
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Specs returns all registered specs, sorted by name.
func Specs() []Spec {
	specs := make([]Spec, 0, len(registry))
	for _, n := range Names() {
		specs = append(specs, registry[n])
	}
	return specs
}

var (
	paramSource    = ParamSpec{Name: "source", Kind: Uint, Desc: "start vertex id"}
	paramSources   = ParamSpec{Name: "sources", Kind: UintList, Desc: "personalization vertex ids"}
	paramIters     = ParamSpec{Name: "iters", Kind: Uint, Desc: "iteration cap (0 = default)"}
	paramTolerance = ParamSpec{Name: "tolerance", Kind: Float, Desc: "convergence threshold"}
	paramRestart   = ParamSpec{Name: "restart", Kind: Float, Desc: "teleport probability (0 = 0.15)"}
)

func init() {
	Register(Spec{
		Name:        "pagerank",
		Description: "PageRank over out-edges (paper equation 1)",
		Params:      []ParamSpec{paramIters, paramTolerance, paramRestart},
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewPageRankStore(adj, partitions)
			if err != nil {
				return nil, err
			}
			return &pagerankInstance{liveGraph: liveGraph[PRVertex]{store: st, kind: updDirected}}, nil
		},
		Open: func(img *graphmat.SnapImage) (Instance, error) {
			st, err := graphmat.NewStoreFromImage[PRVertex](img)
			if err != nil {
				return nil, err
			}
			return &pagerankInstance{liveGraph: liveGraph[PRVertex]{store: st, kind: updDirected}}, nil
		},
	})
	Register(Spec{
		Name:        "bfs",
		Description: "breadth-first hop distances on the symmetrized graph",
		Params:      []ParamSpec{paramSource, paramSources},
		Batchable:   true,
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewBFSStore(adj, partitions)
			if err != nil {
				return nil, err
			}
			return &bfsInstance{liveGraph[uint32]{store: st, kind: updSymmetric}}, nil
		},
		Open: func(img *graphmat.SnapImage) (Instance, error) {
			st, err := graphmat.NewStoreFromImage[uint32](img)
			if err != nil {
				return nil, err
			}
			return &bfsInstance{liveGraph[uint32]{store: st, kind: updSymmetric}}, nil
		},
	})
	Register(Spec{
		Name:        "sssp",
		Description: "single-source shortest paths (frontier Bellman-Ford)",
		Params:      []ParamSpec{paramSource, paramSources},
		Batchable:   true,
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewSSSPStore(adj, partitions)
			if err != nil {
				return nil, err
			}
			return &ssspInstance{liveGraph[float32]{store: st, kind: updDirected}}, nil
		},
		Open: func(img *graphmat.SnapImage) (Instance, error) {
			st, err := graphmat.NewStoreFromImage[float32](img)
			if err != nil {
				return nil, err
			}
			return &ssspInstance{liveGraph[float32]{store: st, kind: updDirected}}, nil
		},
	})
	Register(Spec{
		Name:        "components",
		Description: "connected components by min-label propagation",
		Params:      nil,
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewCCStore(adj, partitions)
			if err != nil {
				return nil, err
			}
			return &componentsInstance{liveGraph: liveGraph[uint32]{store: st, kind: updSymmetric}}, nil
		},
		Open: func(img *graphmat.SnapImage) (Instance, error) {
			st, err := graphmat.NewStoreFromImage[uint32](img)
			if err != nil {
				return nil, err
			}
			return &componentsInstance{liveGraph: liveGraph[uint32]{store: st, kind: updSymmetric}}, nil
		},
	})
	Register(Spec{
		Name:        "ppr",
		Description: "personalized PageRank toward a source set",
		Params:      []ParamSpec{paramSource, paramSources, paramIters, paramTolerance, paramRestart},
		Batchable:   true,
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewPersonalizedPageRankStore(adj, partitions)
			if err != nil {
				return nil, err
			}
			return &pprInstance{liveGraph[PPRVertex]{store: st, kind: updDirected}}, nil
		},
		Open: func(img *graphmat.SnapImage) (Instance, error) {
			st, err := graphmat.NewStoreFromImage[PPRVertex](img)
			if err != nil {
				return nil, err
			}
			return &pprInstance{liveGraph[PPRVertex]{store: st, kind: updDirected}}, nil
		},
	})
	Register(Spec{
		Name:        "reachability",
		Description: "directed reachability over the boolean (OR, AND) semiring",
		Params:      []ParamSpec{paramSource, paramSources},
		Batchable:   true,
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewReachabilityStore(adj, partitions)
			if err != nil {
				return nil, err
			}
			return &reachabilityInstance{liveGraph[uint32]{store: st, kind: updDirected}}, nil
		},
		Open: func(img *graphmat.SnapImage) (Instance, error) {
			st, err := graphmat.NewStoreFromImage[uint32](img)
			if err != nil {
				return nil, err
			}
			return &reachabilityInstance{liveGraph[uint32]{store: st, kind: updDirected}}, nil
		},
	})
	Register(Spec{
		Name:        "widest",
		Description: "widest (bottleneck) paths over the (max, min) semiring",
		Params:      []ParamSpec{paramSource, paramSources},
		Batchable:   true,
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewWidestPathStore(adj, partitions)
			if err != nil {
				return nil, err
			}
			return &widestInstance{liveGraph[float32]{store: st, kind: updDirected}}, nil
		},
		Open: func(img *graphmat.SnapImage) (Instance, error) {
			st, err := graphmat.NewStoreFromImage[float32](img)
			if err != nil {
				return nil, err
			}
			return &widestInstance{liveGraph[float32]{store: st, kind: updDirected}}, nil
		},
	})
	Register(Spec{
		Name:        "triangles",
		Description: "triangle count via the two-phase neighbor-intersection pipeline",
		Params:      nil,
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewTriangleStore(adj, partitions)
			if err != nil {
				return nil, err
			}
			return &trianglesInstance{liveGraph: liveGraph[TCVertex]{store: st, kind: updUpperTriangle}}, nil
		},
		Open: func(img *graphmat.SnapImage) (Instance, error) {
			st, err := graphmat.NewStoreFromImage[TCVertex](img)
			if err != nil {
				return nil, err
			}
			return &trianglesInstance{liveGraph: liveGraph[TCVertex]{store: st, kind: updUpperTriangle}}, nil
		},
	})
	Register(Spec{
		Name:        "hits",
		Description: "HITS hub and authority scores (L2-normalized half-steps)",
		Params:      []ParamSpec{paramIters},
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewHITSStore(adj, partitions)
			if err != nil {
				return nil, err
			}
			return &hitsInstance{liveGraph: liveGraph[HITSVertex]{store: st, kind: updDirected}}, nil
		},
		Open: func(img *graphmat.SnapImage) (Instance, error) {
			st, err := graphmat.NewStoreFromImage[HITSVertex](img)
			if err != nil {
				return nil, err
			}
			return &hitsInstance{liveGraph: liveGraph[HITSVertex]{store: st, kind: updDirected}}, nil
		},
	})
}

func checkSource(v uint32, n uint32, what string) error {
	if v >= n {
		return fmt.Errorf("%s vertex %d out of range (graph has %d vertices)", what, v, n)
	}
	return nil
}

// noBatch is the RunBatch stub embedded by instances of algorithms with no
// source parameter to batch over.
type noBatch struct{}

func (noBatch) RunBatch(context.Context, Params, Observer) (BatchResult, error) {
	return BatchResult{}, ErrBatchUnsupported
}

func (noBatch) RunBatchPinned(context.Context, Pin, Params, Observer) (BatchResult, error) {
	return BatchResult{}, ErrBatchUnsupported
}

// batchSources resolves the source list of a RunBatch call: p.Sources, with
// {p.Source} as the single-source fallback so every Run-able parameter set
// is also RunBatch-able.
func batchSources(p Params) []uint32 {
	if len(p.Sources) > 0 {
		return p.Sources
	}
	return []uint32{p.Source}
}

// pinnedSnap coerces a Pin handed to RunBatchPinned back to the instance's
// concrete snapshot type. A mismatch means the caller pinned a different
// instance's graph — a programming error surfaced as an error, not a panic,
// because the serving layer routes pins across goroutines.
func pinnedSnap[V any](pin Pin) (*graphmat.Snapshot[V, float32], error) {
	s, ok := pin.(*graphmat.Snapshot[V, float32])
	if !ok {
		return nil, fmt.Errorf("algorithms: pin of type %T does not belong to this algorithm's property graph", pin)
	}
	return s, nil
}

// typedScratch coerces a pooled scratch value to the instance's workspace
// type, allocating a fresh one when the caller passed nil.
func typedScratch[T any](scratch any, fresh func() any) (T, error) {
	if scratch == nil {
		scratch = fresh()
	}
	t, ok := scratch.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("scratch type %T does not belong to this algorithm", scratch)
	}
	return t, nil
}

type pagerankInstance struct {
	liveGraph[PRVertex]
	noBatch
}

func (i *pagerankInstance) NewScratch() any {
	return graphmat.NewWorkspace[float64, float64](int(i.NumVertices()), graphmat.Bitvector)
}
func (i *pagerankInstance) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}
func (i *pagerankInstance) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	ws, err := typedScratch[*graphmat.Workspace[float64, float64]](scratch, i.NewScratch)
	if err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	opt := PageRankOptions{MaxIterations: p.Iterations, Tolerance: p.Tolerance, RestartProb: p.RestartProb, Config: p.config()}
	ranks, stats, err := PageRankContext(ctx, snap.Graph(), opt, ws, obs)
	return Result{Values: ranks, Stats: stats, Epoch: snap.Epoch()}, err
}

type bfsInstance struct {
	liveGraph[uint32]
}

func (i *bfsInstance) NewScratch() any {
	return graphmat.NewWorkspace[uint32, uint32](int(i.NumVertices()), graphmat.Bitvector)
}
func (i *bfsInstance) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}
func (i *bfsInstance) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	if err := checkSource(p.Source, i.NumVertices(), "source"); err != nil {
		return Result{}, err
	}
	ws, err := typedScratch[*graphmat.Workspace[uint32, uint32]](scratch, i.NewScratch)
	if err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	dist, stats, err := BFSContext(ctx, snap.Graph(), p.Source, p.config(), ws, obs)
	return Result{Values: uintValues(dist), Stats: stats, Epoch: snap.Epoch()}, err
}

type ssspInstance struct {
	liveGraph[float32]
}

func (i *ssspInstance) NewScratch() any {
	return graphmat.NewWorkspace[float32, float32](int(i.NumVertices()), graphmat.Bitvector)
}
func (i *ssspInstance) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}
func (i *ssspInstance) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	if err := checkSource(p.Source, i.NumVertices(), "source"); err != nil {
		return Result{}, err
	}
	ws, err := typedScratch[*graphmat.Workspace[float32, float32]](scratch, i.NewScratch)
	if err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	dist, stats, err := SSSPContext(ctx, snap.Graph(), p.Source, p.config(), ws, obs)
	values := make([]float64, len(dist))
	for v, d := range dist {
		values[v] = float64(d)
	}
	return Result{Values: values, Stats: stats, Epoch: snap.Epoch()}, err
}

type componentsInstance struct {
	liveGraph[uint32]
	noBatch
}

func (i *componentsInstance) NewScratch() any {
	return graphmat.NewWorkspace[uint32, uint32](int(i.NumVertices()), graphmat.Bitvector)
}
func (i *componentsInstance) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}
func (i *componentsInstance) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	ws, err := typedScratch[*graphmat.Workspace[uint32, uint32]](scratch, i.NewScratch)
	if err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	labels, stats, err := ConnectedComponentsContext(ctx, snap.Graph(), p.config(), ws, obs)
	return Result{Values: uintValues(labels), Stats: stats, Epoch: snap.Epoch()}, err
}

type pprInstance struct {
	liveGraph[PPRVertex]
}

func (i *pprInstance) NewScratch() any {
	return graphmat.NewWorkspace[float64, float64](int(i.NumVertices()), graphmat.Bitvector)
}
func (i *pprInstance) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}
func (i *pprInstance) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	sources := p.Sources
	if len(sources) == 0 {
		sources = []uint32{p.Source}
	}
	for _, s := range sources {
		if err := checkSource(s, i.NumVertices(), "personalization"); err != nil {
			return Result{}, err
		}
	}
	ws, err := typedScratch[*graphmat.Workspace[float64, float64]](scratch, i.NewScratch)
	if err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	opt := PageRankOptions{MaxIterations: p.Iterations, Tolerance: p.Tolerance, RestartProb: p.RestartProb, Config: p.config()}
	ranks, stats, err := PersonalizedPageRankContext(ctx, snap.Graph(), sources, opt, ws, obs)
	return Result{Values: ranks, Stats: stats, Epoch: snap.Epoch()}, err
}

type trianglesInstance struct {
	liveGraph[TCVertex]
	noBatch
}

func (i *trianglesInstance) NewScratch() any {
	return NewTriangleScratch(int(i.NumVertices()), graphmat.Bitvector)
}
func (i *trianglesInstance) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}
func (i *trianglesInstance) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	sc, err := typedScratch[*TriangleScratch](scratch, i.NewScratch)
	if err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	count, stats, err := TriangleCountContext(ctx, snap.Graph(), p.config(), sc, obs)
	return Result{Count: &count, Stats: stats, Epoch: snap.Epoch()}, err
}

type hitsInstance struct {
	liveGraph[HITSVertex]
	noBatch
}

func (i *hitsInstance) NewScratch() any {
	return graphmat.NewWorkspace[float64, float64](int(i.NumVertices()), graphmat.Bitvector)
}
func (i *hitsInstance) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}
func (i *hitsInstance) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	ws, err := typedScratch[*graphmat.Workspace[float64, float64]](scratch, i.NewScratch)
	if err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	scores, stats, err := HITSContext(ctx, snap.Graph(), HITSOptions{Iterations: p.Iterations, Config: p.config()}, ws, obs)
	hub := make([]float64, len(scores))
	auth := make([]float64, len(scores))
	for v, s := range scores {
		hub[v] = s.Hub
		auth[v] = s.Auth
	}
	// A stopped run still carries the scores as of the stop, matching the
	// other algorithms' partial-result contract.
	return Result{Series: map[string][]float64{"hub": hub, "auth": auth}, Stats: stats, Epoch: snap.Epoch()}, err
}

// uintValues widens a uint32 result series to the registry's float64 result
// shape; uint32 is exactly representable in float64, so the conversion is
// lossless.
func uintValues(s []uint32) []float64 {
	out := make([]float64, len(s))
	for v, x := range s {
		out[v] = float64(x)
	}
	return out
}

// RunBatch executes one BFS per source as a single multi-source block run;
// per-source distances are bit-identical to single-source Run calls.
func (i *bfsInstance) RunBatch(ctx context.Context, p Params, obs Observer) (BatchResult, error) {
	snap := i.store.Acquire()
	defer snap.Release()
	return i.runBatch(ctx, snap, p, obs)
}

func (i *bfsInstance) RunBatchPinned(ctx context.Context, pin Pin, p Params, obs Observer) (BatchResult, error) {
	snap, err := pinnedSnap[uint32](pin)
	if err != nil {
		return BatchResult{}, err
	}
	return i.runBatch(ctx, snap, p, obs)
}

func (i *bfsInstance) runBatch(ctx context.Context, snap *graphmat.Snapshot[uint32, float32], p Params, obs Observer) (BatchResult, error) {
	sources := batchSources(p)
	dists, stats, err := RunBFSBatch(ctx, snap.Graph(), sources, WithConfig(p.config()), WithObserver(obs))
	values := make([][]float64, len(dists))
	for s, d := range dists {
		values[s] = uintValues(d)
	}
	return BatchResult{Sources: sources, Values: values, Stats: stats, Epoch: snap.Epoch()}, err
}

// RunBatch executes one SSSP per source as a single multi-source block run.
func (i *ssspInstance) RunBatch(ctx context.Context, p Params, obs Observer) (BatchResult, error) {
	snap := i.store.Acquire()
	defer snap.Release()
	return i.runBatch(ctx, snap, p, obs)
}

func (i *ssspInstance) RunBatchPinned(ctx context.Context, pin Pin, p Params, obs Observer) (BatchResult, error) {
	snap, err := pinnedSnap[float32](pin)
	if err != nil {
		return BatchResult{}, err
	}
	return i.runBatch(ctx, snap, p, obs)
}

func (i *ssspInstance) runBatch(ctx context.Context, snap *graphmat.Snapshot[float32, float32], p Params, obs Observer) (BatchResult, error) {
	sources := batchSources(p)
	dists, stats, err := RunSSSPBatch(ctx, snap.Graph(), sources, WithConfig(p.config()), WithObserver(obs))
	values := make([][]float64, len(dists))
	for s, d := range dists {
		row := make([]float64, len(d))
		for v, x := range d {
			row[v] = float64(x)
		}
		values[s] = row
	}
	return BatchResult{Sources: sources, Values: values, Stats: stats, Epoch: snap.Epoch()}, err
}

// RunBatch executes one single-source personalized PageRank per source as a
// multi-source block run. Note the semantic difference from Run: Run with k
// sources computes ONE rank vector personalized to the whole set, RunBatch
// computes k independent vectors, one per source.
func (i *pprInstance) RunBatch(ctx context.Context, p Params, obs Observer) (BatchResult, error) {
	snap := i.store.Acquire()
	defer snap.Release()
	return i.runBatch(ctx, snap, p, obs)
}

func (i *pprInstance) RunBatchPinned(ctx context.Context, pin Pin, p Params, obs Observer) (BatchResult, error) {
	snap, err := pinnedSnap[PPRVertex](pin)
	if err != nil {
		return BatchResult{}, err
	}
	return i.runBatch(ctx, snap, p, obs)
}

func (i *pprInstance) runBatch(ctx context.Context, snap *graphmat.Snapshot[PPRVertex, float32], p Params, obs Observer) (BatchResult, error) {
	sources := batchSources(p)
	values, stats, err := RunPersonalizedPageRankBatch(ctx, snap.Graph(), sources,
		WithConfig(p.config()), WithIterations(p.Iterations), WithTolerance(p.Tolerance), WithRestartProb(p.RestartProb), WithObserver(obs))
	return BatchResult{Sources: sources, Values: values, Stats: stats, Epoch: snap.Epoch()}, err
}

type reachabilityInstance struct {
	liveGraph[uint32]
}

func (i *reachabilityInstance) NewScratch() any {
	return graphmat.NewWorkspace[uint32, uint32](int(i.NumVertices()), graphmat.Bitvector)
}
func (i *reachabilityInstance) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}
func (i *reachabilityInstance) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	if err := checkSource(p.Source, i.NumVertices(), "source"); err != nil {
		return Result{}, err
	}
	ws, err := typedScratch[*graphmat.Workspace[uint32, uint32]](scratch, i.NewScratch)
	if err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	reached, stats, err := RunReachability(ctx, snap.Graph(), p.Source, WithConfig(p.config()), WithWorkspace(ws), WithObserver(obs))
	return Result{Values: uintValues(reached), Stats: stats, Epoch: snap.Epoch()}, err
}
func (i *reachabilityInstance) RunBatch(ctx context.Context, p Params, obs Observer) (BatchResult, error) {
	snap := i.store.Acquire()
	defer snap.Release()
	return i.runBatch(ctx, snap, p, obs)
}

func (i *reachabilityInstance) RunBatchPinned(ctx context.Context, pin Pin, p Params, obs Observer) (BatchResult, error) {
	snap, err := pinnedSnap[uint32](pin)
	if err != nil {
		return BatchResult{}, err
	}
	return i.runBatch(ctx, snap, p, obs)
}

func (i *reachabilityInstance) runBatch(ctx context.Context, snap *graphmat.Snapshot[uint32, float32], p Params, obs Observer) (BatchResult, error) {
	sources := batchSources(p)
	flags, stats, err := RunReachabilityBatch(ctx, snap.Graph(), sources, WithConfig(p.config()), WithObserver(obs))
	values := make([][]float64, len(flags))
	for s, f := range flags {
		values[s] = uintValues(f)
	}
	return BatchResult{Sources: sources, Values: values, Stats: stats, Epoch: snap.Epoch()}, err
}

type widestInstance struct {
	liveGraph[float32]
}

func (i *widestInstance) NewScratch() any {
	return graphmat.NewWorkspace[float32, float32](int(i.NumVertices()), graphmat.Bitvector)
}
func (i *widestInstance) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}
func (i *widestInstance) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	if err := checkSource(p.Source, i.NumVertices(), "source"); err != nil {
		return Result{}, err
	}
	ws, err := typedScratch[*graphmat.Workspace[float32, float32]](scratch, i.NewScratch)
	if err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	width, stats, err := RunWidestPath(ctx, snap.Graph(), p.Source, WithConfig(p.config()), WithWorkspace(ws), WithObserver(obs))
	values := make([]float64, len(width))
	for v, x := range width {
		values[v] = float64(x)
	}
	return Result{Values: values, Stats: stats, Epoch: snap.Epoch()}, err
}
func (i *widestInstance) RunBatch(ctx context.Context, p Params, obs Observer) (BatchResult, error) {
	snap := i.store.Acquire()
	defer snap.Release()
	return i.runBatch(ctx, snap, p, obs)
}

func (i *widestInstance) RunBatchPinned(ctx context.Context, pin Pin, p Params, obs Observer) (BatchResult, error) {
	snap, err := pinnedSnap[float32](pin)
	if err != nil {
		return BatchResult{}, err
	}
	return i.runBatch(ctx, snap, p, obs)
}

func (i *widestInstance) runBatch(ctx context.Context, snap *graphmat.Snapshot[float32, float32], p Params, obs Observer) (BatchResult, error) {
	sources := batchSources(p)
	widths, stats, err := RunWidestPathBatch(ctx, snap.Graph(), sources, WithConfig(p.config()), WithObserver(obs))
	values := make([][]float64, len(widths))
	for s, w := range widths {
		row := make([]float64, len(w))
		for v, x := range w {
			row[v] = float64(x)
		}
		values[s] = row
	}
	return BatchResult{Sources: sources, Values: values, Stats: stats, Epoch: snap.Epoch()}, err
}
