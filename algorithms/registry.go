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

// options translates the parameters into the run options every Run<Algo>
// accepts (each ignores the ones it has no use for), followed by extra.
func (p Params) options(extra ...Option) []Option {
	return append([]Option{
		WithConfig(graphmat.Config{Threads: p.Threads, Mode: p.Mode}),
		WithIterations(p.Iterations), WithTolerance(p.Tolerance), WithRestartProb(p.RestartProb),
	}, extra...)
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
	// RunPinned is RunContext against a snapshot the caller already pinned
	// with AcquirePin: the run executes on exactly that epoch's edge set,
	// whatever updates landed since the pin was taken. The pin stays owned
	// by the caller (Release after the call returns).
	RunPinned(ctx context.Context, pin Pin, p Params, scratch any, obs Observer) (Result, error)
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
	// queued behind a run that straddles an update still answers every
	// waiter from the epoch its batch key promised.
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
// Instance.RunPinned and Instance.RunBatchPinned.
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

// register adds one algorithm to the registry. proto carries the
// algorithm's update kind and its scratch, run and batch functions; Build
// and Open bind a copy of it to a store, built by newStore from adjacency
// triples or opened from a snapshot image. Batchable is set from whether
// proto has a batch function, so the flag and the behavior cannot disagree.
func register[V any, S comparable](s Spec, newStore func(*graphmat.COO[float32], int) (*graphmat.Store[V, float32], error), proto instance[V, S]) {
	bind := func(st *graphmat.Store[V, float32], err error) (Instance, error) {
		if err != nil {
			return nil, err
		}
		in := proto
		in.store = st
		return &in, nil
	}
	s.Batchable = proto.batch != nil
	s.Build = func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
		return bind(newStore(adj, partitions))
	}
	s.Open = func(img *graphmat.SnapImage) (Instance, error) {
		return bind(graphmat.NewStoreFromImage[V](img))
	}
	Register(s)
}

func init() {
	register(Spec{
		Name:        "pagerank",
		Description: "PageRank over out-edges (paper equation 1)",
		Params:      []ParamSpec{paramIters, paramTolerance, paramRestart},
	}, NewPageRankStore, instance[PRVertex, *graphmat.Workspace[float64, float64]]{
		liveGraph: liveGraph[PRVertex]{kind: updDirected},
		scratch:   graphmat.NewWorkspace[float64, float64],
		run: func(ctx context.Context, g *graphmat.Graph[PRVertex, float32], p Params, opts ...Option) (Result, error) {
			ranks, stats, err := RunPageRank(ctx, g, opts...)
			return Result{Values: ranks, Stats: stats}, err
		},
	})
	register(Spec{
		Name:        "bfs",
		Description: "breadth-first hop distances on the symmetrized graph",
		Params:      []ParamSpec{paramSource, paramSources},
	}, NewBFSStore, traversal(updSymmetric, RunBFS, RunBFSBatch))
	register(Spec{
		Name:        "sssp",
		Description: "single-source shortest paths (frontier Bellman-Ford)",
		Params:      []ParamSpec{paramSource, paramSources},
	}, NewSSSPStore, traversal(updDirected, RunSSSP, RunSSSPBatch))
	register(Spec{
		Name:        "components",
		Description: "connected components by min-label propagation",
	}, NewCCStore, instance[uint32, *graphmat.Workspace[uint32, uint32]]{
		liveGraph: liveGraph[uint32]{kind: updSymmetric},
		scratch:   graphmat.NewWorkspace[uint32, uint32],
		run: func(ctx context.Context, g *graphmat.Graph[uint32, float32], p Params, opts ...Option) (Result, error) {
			labels, stats, err := RunConnectedComponents(ctx, g, opts...)
			return Result{Values: widen(labels), Stats: stats}, err
		},
	})
	register(Spec{
		Name:        "ppr",
		Description: "personalized PageRank toward a source set",
		Params:      []ParamSpec{paramSource, paramSources, paramIters, paramTolerance, paramRestart},
	}, NewPersonalizedPageRankStore, instance[PPRVertex, *graphmat.Workspace[float64, float64]]{
		liveGraph: liveGraph[PPRVertex]{kind: updDirected},
		scratch:   graphmat.NewWorkspace[float64, float64],
		run: func(ctx context.Context, g *graphmat.Graph[PPRVertex, float32], p Params, opts ...Option) (Result, error) {
			ranks, stats, err := RunPersonalizedPageRank(ctx, g, batchSources(p), opts...)
			return Result{Values: ranks, Stats: stats}, err
		},
		// Note the semantic difference from run: run with k sources computes
		// ONE rank vector personalized to the whole set, batch computes k
		// independent vectors, one per source.
		batch: RunPersonalizedPageRankBatch,
	})
	register(Spec{
		Name:        "reachability",
		Description: "directed reachability over the boolean (OR, AND) semiring",
		Params:      []ParamSpec{paramSource, paramSources},
	}, NewReachabilityStore, traversal(updDirected, RunReachability, RunReachabilityBatch))
	register(Spec{
		Name:        "widest",
		Description: "widest (bottleneck) paths over the (max, min) semiring",
		Params:      []ParamSpec{paramSource, paramSources},
	}, NewWidestPathStore, traversal(updDirected, RunWidestPath, RunWidestPathBatch))
	register(Spec{
		Name:        "triangles",
		Description: "triangle count via the two-phase neighbor-intersection pipeline",
	}, NewTriangleStore, instance[TCVertex, *TriangleScratch]{
		liveGraph: liveGraph[TCVertex]{kind: updUpperTriangle},
		scratch:   NewTriangleScratch,
		run: func(ctx context.Context, g *graphmat.Graph[TCVertex, float32], p Params, opts ...Option) (Result, error) {
			count, stats, err := RunTriangleCount(ctx, g, opts...)
			return Result{Count: &count, Stats: stats}, err
		},
	})
	register(Spec{
		Name:        "hits",
		Description: "HITS hub and authority scores (L2-normalized half-steps)",
		Params:      []ParamSpec{paramIters},
	}, NewHITSStore, instance[HITSVertex, *graphmat.Workspace[float64, float64]]{
		liveGraph: liveGraph[HITSVertex]{kind: updDirected},
		scratch:   graphmat.NewWorkspace[float64, float64],
		run: func(ctx context.Context, g *graphmat.Graph[HITSVertex, float32], p Params, opts ...Option) (Result, error) {
			scores, stats, err := RunHITS(ctx, g, opts...)
			hub := make([]float64, len(scores))
			auth := make([]float64, len(scores))
			for v, s := range scores {
				hub[v] = s.Hub
				auth[v] = s.Auth
			}
			// A stopped run still carries the scores as of the stop,
			// matching the other algorithms' partial-result contract.
			return Result{Series: map[string][]float64{"hub": hub, "auth": auth}, Stats: stats}, err
		},
	})
}

func checkSource(v uint32, n uint32, what string) error {
	if v >= n {
		return fmt.Errorf("%s vertex %d out of range (graph has %d vertices)", what, v, n)
	}
	return nil
}

// batchSources resolves the source list of a run: p.Sources, with
// {p.Source} as the single-source fallback so every Run-able parameter set
// is also RunBatch-able.
func batchSources(p Params) []uint32 {
	if len(p.Sources) > 0 {
		return p.Sources
	}
	return []uint32{p.Source}
}

// instance is the registry's one Instance implementation: an algorithm's
// live property graph plus three functions. scratch allocates the
// algorithm's reusable workspace; run executes one query on a pinned
// snapshot's graph (the instance fills in Result.Epoch); batch, nil for
// algorithms with no source parameter, executes one multi-source block run.
type instance[V any, S comparable] struct {
	liveGraph[V]
	scratch func(n int, kind graphmat.VectorKind) S
	run     func(ctx context.Context, g *graphmat.Graph[V, float32], p Params, opts ...Option) (Result, error)
	batch   func(ctx context.Context, g *graphmat.Graph[V, float32], sources []uint32, opts ...Option) ([][]float64, graphmat.Stats, error)
}

func (i *instance[V, S]) NewScratch() any {
	return i.scratch(int(i.NumVertices()), graphmat.Bitvector)
}

func (i *instance[V, S]) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}

func (i *instance[V, S]) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	snap := i.store.Acquire()
	defer snap.Release()
	return i.runOn(ctx, snap, p, scratch, obs)
}

func (i *instance[V, S]) RunPinned(ctx context.Context, pin Pin, p Params, scratch any, obs Observer) (Result, error) {
	snap, err := i.pinned(pin)
	if err != nil {
		return Result{}, err
	}
	return i.runOn(ctx, snap, p, scratch, obs)
}

func (i *instance[V, S]) runOn(ctx context.Context, snap *graphmat.Snapshot[V, float32], p Params, scratch any, obs Observer) (Result, error) {
	res, err := i.run(ctx, snap.Graph(), p, p.options(WithWorkspace(scratch), WithObserver(obs))...)
	res.Epoch = snap.Epoch()
	return res, err
}

func (i *instance[V, S]) RunBatch(ctx context.Context, p Params, obs Observer) (BatchResult, error) {
	if i.batch == nil {
		return BatchResult{}, ErrBatchUnsupported
	}
	snap := i.store.Acquire()
	defer snap.Release()
	return i.runBatch(ctx, snap, p, obs)
}

func (i *instance[V, S]) RunBatchPinned(ctx context.Context, pin Pin, p Params, obs Observer) (BatchResult, error) {
	if i.batch == nil {
		return BatchResult{}, ErrBatchUnsupported
	}
	snap, err := i.pinned(pin)
	if err != nil {
		return BatchResult{}, err
	}
	return i.runBatch(ctx, snap, p, obs)
}

// pinned recovers the snapshot behind a pin taken with AcquirePin. A pin of
// another type means the caller pinned a different instance's graph: a
// programming error surfaced as an error, not a panic, because the serving
// layer routes pins across goroutines.
func (i *instance[V, S]) pinned(pin Pin) (*graphmat.Snapshot[V, float32], error) {
	snap, ok := pin.(*graphmat.Snapshot[V, float32])
	if !ok {
		return nil, fmt.Errorf("algorithms: pin of type %T does not belong to this algorithm's property graph", pin)
	}
	return snap, nil
}

func (i *instance[V, S]) runBatch(ctx context.Context, snap *graphmat.Snapshot[V, float32], p Params, obs Observer) (BatchResult, error) {
	sources := batchSources(p)
	values, stats, err := i.batch(ctx, snap.Graph(), sources, p.options(WithObserver(obs))...)
	return BatchResult{Sources: sources, Values: values, Stats: stats, Epoch: snap.Epoch()}, err
}

// traversal builds the instance of a single-source traversal whose
// property, message and reduction types coincide (bfs, sssp, reachability,
// widest), widening its run and batch results to the registry's float64
// shape.
func traversal[V uint32 | float32](
	kind updateKind,
	run func(context.Context, *graphmat.Graph[V, float32], uint32, ...Option) ([]V, graphmat.Stats, error),
	batch func(context.Context, *graphmat.Graph[V, float32], []uint32, ...Option) ([][]V, graphmat.Stats, error),
) instance[V, *graphmat.Workspace[V, V]] {
	return instance[V, *graphmat.Workspace[V, V]]{
		liveGraph: liveGraph[V]{kind: kind},
		scratch:   graphmat.NewWorkspace[V, V],
		run: func(ctx context.Context, g *graphmat.Graph[V, float32], p Params, opts ...Option) (Result, error) {
			out, stats, err := run(ctx, g, p.Source, opts...)
			return Result{Values: widen(out), Stats: stats}, err
		},
		batch: func(ctx context.Context, g *graphmat.Graph[V, float32], sources []uint32, opts ...Option) ([][]float64, graphmat.Stats, error) {
			out, stats, err := batch(ctx, g, sources, opts...)
			values := make([][]float64, len(out))
			for s, col := range out {
				values[s] = widen(col)
			}
			return values, stats, err
		},
	}
}

// widen converts a uint32 or float32 result series to the registry's
// float64 result shape; both convert exactly.
func widen[T uint32 | float32](s []T) []float64 {
	out := make([]float64, len(s))
	for v, x := range s {
		out[v] = float64(x)
	}
	return out
}
