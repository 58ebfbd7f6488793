package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/counters"
	"graphmat/internal/graph"
	"graphmat/internal/snap"
	"graphmat/internal/sparse"
)

// Registry is the server's concurrent-safe table of loaded graphs. Each
// entry keeps the raw adjacency triples as an immutable master copy;
// algorithm-specific property graphs (which preprocess the edges in place)
// are built lazily from clones and cached per algorithm, each with its own
// reused workspace.
type Registry struct {
	partitions int
	workers    int
	dataDir    string // persistence root; empty = in-memory only
	mu         sync.RWMutex
	graphs     map[string]*GraphEntry
}

// NewRegistry returns an empty registry. partitions is passed to every graph
// build; 0 selects the engine default. workers is the ingestion parallelism
// for file-backed sources; 0 means GOMAXPROCS. dataDir, when non-empty, is
// the persistence root: each graph gets <dataDir>/<name> with GMATSNAP
// checkpoints and a write-ahead log, and registration of a name that already
// has a valid manifest boots from the mmap'd snapshots instead of parsing.
func NewRegistry(partitions, workers int, dataDir string) *Registry {
	return &Registry{partitions: partitions, workers: workers, dataDir: dataDir, graphs: make(map[string]*GraphEntry)}
}

// GraphEntry is one registered graph. The master adjacency is the raw edge
// set's source of truth: normalized (row-major sorted, deduplicated) at
// registration and replaced wholesale by each update batch, so readers
// (lazy instance builds, update translation lookups) always see a complete
// epoch. Per-algorithm property graphs are versioned stores; an update batch
// fans out to every built instance through its own preprocessing.
type GraphEntry struct {
	name       string
	source     string
	partitions int
	workers    int

	// updMu serializes whole update batches (master swap + instance
	// fan-out) so every instance sees batches in the same order.
	updMu sync.Mutex

	adjMu   sync.RWMutex
	adj     *sparse.COO[float32] // normalized master; replaced, never mutated
	epoch   uint64
	updates int64 // raw edge updates applied over the entry's lifetime

	mu    sync.Mutex
	insts map[string]*algoInstance

	// pers, when non-nil, makes the entry durable: WAL-before-ack on every
	// update batch, compaction-driven checkpoints, mmap boot. Set before the
	// entry is published, never changed after.
	pers *persister
}

// algoInstance is one built (graph, algorithm) pair: the property graph, the
// engine workspace reused across queries, and run tallies. Run serializes on
// runMu because the engine mutates the property graph's vertex state, so one
// workspace serves every query: back-to-back queries reuse scratch instead
// of paying two vertex-sized allocations each (the RedisGraph-style shared
// engine state this server exists to provide).
type algoInstance struct {
	spec algorithms.Spec
	inst algorithms.Instance

	runMu sync.Mutex
	// scratch is the instance's workspace, created by the first run; runMu
	// guards it.
	scratch any
	allocs  atomic.Int64 // workspaces created (at most one)
	runs    atomic.Int64

	// batchRuns counts multi-source block runs and admission batches
	// (width-1 ones run on the scalar engine); batchedSources the total
	// source columns they advanced. batchedSources / batchRuns is the mean
	// batch width — the serving-side view of how well admission batching and
	// explicit multi-source requests amortize adjacency sweeps.
	batchRuns      atomic.Int64
	batchedSources atomic.Int64

	statsMu sync.Mutex
	engine  graphmat.Stats
	wall    float64 // seconds spent inside the engine
}

// record accumulates one completed run's engine stats and wall time into the
// instance tallies.
func (ai *algoInstance) record(s graphmat.Stats, wall float64) {
	ai.statsMu.Lock()
	ai.engine.Iterations += s.Iterations
	ai.engine.MessagesSent += s.MessagesSent
	ai.engine.EdgesProcessed += s.EdgesProcessed
	ai.engine.Applies += s.Applies
	ai.engine.ActiveSum += s.ActiveSum
	ai.engine.ColumnsProbed += s.ColumnsProbed
	ai.engine.PushSupersteps += s.PushSupersteps
	ai.engine.PullSupersteps += s.PullSupersteps
	ai.wall += wall
	ai.statsMu.Unlock()
}

// Errors distinguished by the HTTP layer.
var (
	ErrGraphExists   = fmt.Errorf("graph already registered")
	ErrGraphNotFound = fmt.Errorf("graph not found")
	ErrAlgoNotFound  = fmt.Errorf("algorithm not found")
)

// CheckName rejects unusable or already-taken graph names. Callers about to
// pay for a load or an upload parse should call it first; AddCOO re-checks
// under the lock, so this is a fast-fail, not the authority.
func (r *Registry) CheckName(name string) error {
	if name == "" || strings.ContainsAny(name, "\x00/") {
		return fmt.Errorf("invalid graph name %q", name)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, dup := r.graphs[name]; dup {
		return fmt.Errorf("%w: %s", ErrGraphExists, name)
	}
	return nil
}

// Add loads a source and registers it under name. The name is validated
// before the load so a bad or duplicate name cannot waste a multi-gigabyte
// file parse. With persistence enabled, a name whose directory holds a valid
// manifest boots from the mmap'd snapshots (plus WAL replay) instead of
// parsing the source; a damaged persisted state falls back to parsing.
func (r *Registry) Add(name string, src Source) (*GraphEntry, error) {
	if err := r.CheckName(name); err != nil {
		return nil, err
	}
	if r.dataDir != "" {
		dir := filepath.Join(r.dataDir, name)
		if snap.HasManifest(dir) {
			entry, err := r.openPersisted(name, src.Describe(), dir)
			if err == nil {
				return r.publish(entry)
			}
			// Unrecoverable persisted state: re-parse the source below and
			// let the registration's fresh checkpoint overwrite it.
		}
	}
	adj, err := src.LoadWorkers(r.workers)
	if err != nil {
		return nil, err
	}
	return r.AddCOO(name, src.Describe(), adj)
}

// publish registers a fully assembled entry under its name.
func (r *Registry) publish(entry *GraphEntry) (*GraphEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.graphs[entry.name]; dup {
		if entry.pers != nil {
			entry.pers.closeAll()
		}
		return nil, fmt.Errorf("%w: %s", ErrGraphExists, entry.name)
	}
	r.graphs[entry.name] = entry
	return entry, nil
}

// AddCOO registers already-parsed adjacency triples under name — the upload
// path, where the edges arrived in the request body rather than from a
// Source. The entry lazily builds per-algorithm property graphs and
// workspaces exactly like a Source-loaded graph. The triples are normalized in
// place into the canonical master form (every builder deduplicates the same
// way, so results are unchanged); edge updates then apply by linear merge.
func (r *Registry) AddCOO(name, source string, adj *sparse.COO[float32]) (*GraphEntry, error) {
	if name == "" || strings.ContainsAny(name, "\x00/") {
		return nil, fmt.Errorf("invalid graph name %q", name)
	}
	graph.NormalizeAdjacency(adj, r.workers)
	entry := &GraphEntry{
		name:       name,
		source:     source,
		adj:        adj,
		partitions: r.partitions,
		workers:    r.workers,
		insts:      make(map[string]*algoInstance),
	}
	if r.dataDir != "" {
		// Registration is the entry's first durability point: master
		// snapshot, empty WAL, CURRENT pointer. A name that cannot be made
		// durable is rejected rather than silently registered volatile.
		if err := r.initPersist(entry); err != nil {
			return nil, err
		}
	}
	return r.publish(entry)
}

// Get looks a graph up by name.
func (r *Registry) Get(name string) (*GraphEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	entry, ok := r.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrGraphNotFound, name)
	}
	return entry, nil
}

// Has reports whether the exact entry is still registered (used to avoid
// caching results of a graph deleted mid-run).
func (r *Registry) Has(entry *GraphEntry) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graphs[entry.name] == entry
}

// Remove unregisters a graph; in-flight runs on the entry finish normally.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; !ok {
		return fmt.Errorf("%w: %s", ErrGraphNotFound, name)
	}
	delete(r.graphs, name)
	return nil
}

// Names returns the registered graph names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for n := range r.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name returns the graph's registered name.
func (g *GraphEntry) Name() string { return g.name }

// Source describes where the graph came from.
func (g *GraphEntry) Source() string { return g.source }

// NumVertices reports the raw graph's vertex count (fixed across updates).
func (g *GraphEntry) NumVertices() uint32 {
	g.adjMu.RLock()
	defer g.adjMu.RUnlock()
	return g.adj.NRows
}

// NumEdges reports the current raw edge count (before per-algorithm
// preprocessing).
func (g *GraphEntry) NumEdges() int {
	g.adjMu.RLock()
	defer g.adjMu.RUnlock()
	return g.adj.NNZ()
}

// Epoch reports the entry's raw edge-set version: 0 at registration, +1 per
// applied update batch. Instances built after updates landed start life
// already containing them (their own store epochs count batches applied to
// the instance, not the entry).
func (g *GraphEntry) Epoch() uint64 {
	g.adjMu.RLock()
	defer g.adjMu.RUnlock()
	return g.epoch
}

// UpdatesApplied reports the total raw edge updates the entry has absorbed.
func (g *GraphEntry) UpdatesApplied() int64 {
	g.adjMu.RLock()
	defer g.adjMu.RUnlock()
	return g.updates
}

// ApplyEdges applies one batch of raw edge updates to the entry: the master
// adjacency advances one epoch and every BUILT per-algorithm property graph
// receives the batch through its own preprocessing (a new store snapshot —
// queries in flight keep the epoch they pinned; workspaces survive, as
// updates never change the vertex count). Instances built later start from
// the updated master, so built-before and built-after converge on the same
// edge set; re-application races during a concurrent lazy build are benign
// because batch application is idempotent (upserts and deletes are
// last-write-wins). Returns the entry's new epoch and per-instance results.
func (g *GraphEntry) ApplyEdges(batch []algorithms.EdgeUpdate) (uint64, map[string]graphmat.ApplyResult, error) {
	g.updMu.Lock()
	defer g.updMu.Unlock()

	g.adjMu.RLock()
	cur := g.adj
	curEpoch := g.epoch
	g.adjMu.RUnlock()
	next, err := graph.ApplyToAdjacency(cur, batch)
	if err != nil {
		return 0, nil, err
	}
	// Durability point: the validated batch goes to the write-ahead log —
	// fsynced — BEFORE any in-memory state advances. A crash after this line
	// replays the batch at boot; a crash before it never acknowledged the
	// batch. A batch that cannot be logged is rejected whole, leaving every
	// structure at the old epoch.
	if g.pers != nil {
		if err := g.pers.logBatch(curEpoch+1, batch); err != nil {
			return 0, nil, err
		}
	}
	// Ordering matters for the epoch-keyed result cache: the master swaps
	// first (lazy instance builds and lookups must see the post-batch edge
	// set), the ENTRY EPOCH advances LAST, after every built instance has
	// the batch. A run that reads the new epoch therefore always pins a
	// post-batch snapshot, so nothing stale can ever be cached under the
	// new epoch's key. The reverse window is benign: a run that read the
	// OLD epoch may cache a result of either side of the batch under the
	// old key, which becomes unreachable the moment the epoch advances and
	// is swept by the caller's invalidation.
	g.adjMu.Lock()
	g.adj = next
	g.adjMu.Unlock()

	lookup := algorithms.NewRawEdgeLookup(next)
	g.mu.Lock()
	insts := make(map[string]*algoInstance, len(g.insts))
	for n, ai := range g.insts {
		insts[n] = ai
	}
	g.mu.Unlock()
	results := make(map[string]graphmat.ApplyResult, len(insts))
	var fanErr error
	for name, ai := range insts {
		res, err := ai.inst.ApplyUpdates(batch, lookup)
		if err != nil {
			// The master already advanced and earlier instances applied;
			// surface the divergence loudly rather than hiding it, but
			// still advance the epoch below — the raw edge set DID change,
			// and leaving the epoch behind would let post-batch results be
			// cached under the old key forever. (With ids validated by
			// ApplyToAdjacency above, translation cannot fail in practice.)
			fanErr = fmt.Errorf("applying updates to %s/%s: %w", g.name, name, err)
			break
		}
		results[name] = res
	}
	g.adjMu.Lock()
	g.epoch++
	g.updates += int64(len(batch))
	epoch := g.epoch
	g.adjMu.Unlock()
	// If the batch compacted some instance's overlay (the OnCompact hooks
	// set the dirty flag), rotate the generation while still under updMu:
	// snapshot files at this epoch, fresh WAL, atomic CURRENT flip. The WAL
	// the batch just landed in is retired only after its contents are in the
	// snapshots.
	if g.pers != nil {
		g.pers.maybeCheckpoint(g)
	}
	return epoch, results, fanErr
}

// BuiltAlgorithms returns the algorithms with a built property graph, sorted.
func (g *GraphEntry) BuiltAlgorithms() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.insts))
	for n := range g.insts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// instance returns the built (graph, algorithm) pair, building it on first
// use. The build consumes a clone, so the master adjacency stays pristine
// for the other algorithms' preprocessing. On a persistent entry a fresh
// build is captured into the current generation so the next boot opens it
// instead of rebuilding.
func (g *GraphEntry) instance(algo string) (*algoInstance, error) {
	ai, built, err := g.lockedInstance(algo)
	if err != nil {
		return nil, err
	}
	if built && g.pers != nil {
		// Outside g.mu (the capture takes the update lock, which nests
		// outside the instance lock everywhere else).
		g.updMu.Lock()
		g.pers.onBuild(g, algo, ai)
		g.updMu.Unlock()
	}
	return ai, nil
}

// lockedInstance is instance's cache-or-build core; built reports whether
// this call performed the build.
func (g *GraphEntry) lockedInstance(algo string) (*algoInstance, bool, error) {
	spec, ok := algorithms.Lookup(algo)
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrAlgoNotFound, algo)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if ai, ok := g.insts[algo]; ok {
		return ai, false, nil
	}
	g.adjMu.RLock()
	adj := g.adj.Clone()
	g.adjMu.RUnlock()
	inst, err := spec.Build(adj, g.partitions)
	if err != nil {
		return nil, false, fmt.Errorf("building %s graph for %s: %w", algo, g.name, err)
	}
	ai := &algoInstance{spec: spec, inst: inst}
	g.insts[algo] = ai
	return ai, true, nil
}

// Run executes one query. It serializes on the instance (vertex state is
// shared), drives the engine through the instance's reused workspace, and
// accumulates the run's engine stats into the instance tallies.
func (g *GraphEntry) Run(algo string, p algorithms.Params) (algorithms.Result, error) {
	return g.RunContext(context.Background(), algo, p, nil)
}

// RunContext is Run under a context: when ctx is canceled — a client
// disconnect, a per-request timeout — the engine aborts cooperatively
// mid-run, releasing the instance lock for the next query; a canceled run's
// workspace is still recycled (the engine leaves scratch reusable). obs,
// when non-nil, receives one progress report per superstep while the run is
// in flight.
func (g *GraphEntry) RunContext(ctx context.Context, algo string, p algorithms.Params, obs algorithms.Observer) (algorithms.Result, error) {
	ai, err := g.instance(algo)
	if err != nil {
		return algorithms.Result{}, err
	}
	res, err := ai.runScalar(func(scratch any) (algorithms.Result, error) {
		return ai.inst.RunContext(ctx, p, scratch, obs)
	})
	if err == nil {
		ai.runs.Add(1)
	}
	return res, err
}

// RunPinned is RunContext against a snapshot the caller pinned earlier with
// the instance's AcquirePin — the admission batcher's path for a batch of
// width 1, which runs on the scalar engine through the instance's reused
// workspace instead of allocating n×1 block scratch. The pin stays owned by
// the caller. It tallies as an admission batch of one source (BatchRuns,
// BatchedSources), not as a scalar run.
func (g *GraphEntry) RunPinned(ctx context.Context, algo string, pin algorithms.Pin, p algorithms.Params, obs algorithms.Observer) (algorithms.Result, error) {
	ai, err := g.instance(algo)
	if err != nil {
		return algorithms.Result{}, err
	}
	res, err := ai.runScalar(func(scratch any) (algorithms.Result, error) {
		return ai.inst.RunPinned(ctx, pin, p, scratch, obs)
	})
	if err == nil {
		ai.batchRuns.Add(1)
		ai.batchedSources.Add(1)
	}
	return res, err
}

// runScalar runs one scalar query through the instance's workspace under
// runMu, creating the workspace on first use and resetting it afterwards,
// and records a successful run's engine stats.
func (ai *algoInstance) runScalar(run func(scratch any) (algorithms.Result, error)) (algorithms.Result, error) {
	ai.runMu.Lock()
	defer ai.runMu.Unlock()
	if ai.scratch == nil {
		ai.scratch = ai.inst.NewScratch()
		ai.allocs.Add(1)
	}
	start := time.Now()
	res, err := run(ai.scratch)
	wall := time.Since(start).Seconds()
	if rs, ok := ai.scratch.(interface{ Reset() }); ok {
		rs.Reset() // stale messages must not leak into the next query
	}
	if err != nil {
		return res, err
	}
	ai.record(res.Stats, wall)
	return res, nil
}

// RunBatch executes one multi-source query: k independent single-source runs
// advanced as one block run on one pinned snapshot, per-source results
// bit-identical to k Run calls. Like RunContext it serializes on the instance
// and accumulates engine stats; block scratch is allocated per run (the
// reused scalar workspace does not fit the n×k layout). Algorithms without a
// source parameter return algorithms.ErrBatchUnsupported.
func (g *GraphEntry) RunBatch(ctx context.Context, algo string, p algorithms.Params, obs algorithms.Observer) (algorithms.BatchResult, error) {
	ai, err := g.instance(algo)
	if err != nil {
		return algorithms.BatchResult{}, err
	}
	ai.runMu.Lock()
	defer ai.runMu.Unlock()
	start := time.Now()
	res, err := ai.inst.RunBatch(ctx, p, obs)
	if err != nil {
		return res, err
	}
	ai.batchRuns.Add(1)
	ai.batchedSources.Add(int64(len(res.Sources)))
	ai.record(res.Stats, time.Since(start).Seconds())
	return res, nil
}

// RunBatchPinned is RunBatch against a snapshot the caller pinned earlier
// with the instance's AcquirePin — the admission batcher's path, where the
// epoch promised at admission must be the epoch the run executes on. The
// pin stays owned by the caller.
func (g *GraphEntry) RunBatchPinned(ctx context.Context, algo string, pin algorithms.Pin, p algorithms.Params, obs algorithms.Observer) (algorithms.BatchResult, error) {
	ai, err := g.instance(algo)
	if err != nil {
		return algorithms.BatchResult{}, err
	}
	ai.runMu.Lock()
	defer ai.runMu.Unlock()
	start := time.Now()
	res, err := ai.inst.RunBatchPinned(ctx, pin, p, obs)
	if err != nil {
		return res, err
	}
	ai.batchRuns.Add(1)
	ai.batchedSources.Add(int64(len(res.Sources)))
	ai.record(res.Stats, time.Since(start).Seconds())
	return res, nil
}

// AlgoStats is the /stats view of one (graph, algorithm) pair.
type AlgoStats struct {
	Runs int64 `json:"runs"`
	// BatchRuns counts multi-source block runs and admission batches (a
	// width-1 admission batch runs on the scalar engine); BatchedSources
	// the source columns they carried (their ratio is the mean batch width).
	BatchRuns      int64 `json:"batch_runs"`
	BatchedSources int64 `json:"batched_sources"`
	// WorkspaceAllocs counts workspaces the instance created: at most one,
	// reused by every later run. The workspace survives edge updates (the
	// vertex count is fixed), so this stays flat under update traffic.
	WorkspaceAllocs int64          `json:"workspace_allocs"`
	Engine          graphmat.Stats `json:"engine"`
	Counters        counters.Set   `json:"counters"`
	// Store is the instance's versioned-store view: snapshot epoch, overlay
	// size, compactions, pinned snapshots.
	Store graphmat.StoreStats `json:"store"`
}

// Stats snapshots the per-algorithm tallies for this graph.
func (g *GraphEntry) Stats() map[string]AlgoStats {
	g.mu.Lock()
	insts := make(map[string]*algoInstance, len(g.insts))
	for n, ai := range g.insts {
		insts[n] = ai
	}
	g.mu.Unlock()

	out := make(map[string]AlgoStats, len(insts))
	for n, ai := range insts {
		ai.statsMu.Lock()
		engine, wall := ai.engine, ai.wall
		ai.statsMu.Unlock()
		out[n] = AlgoStats{
			Runs:            ai.runs.Load(),
			BatchRuns:       ai.batchRuns.Load(),
			BatchedSources:  ai.batchedSources.Load(),
			WorkspaceAllocs: ai.allocs.Load(),
			Engine:          engine,
			Counters:        counterSet(engine, wall),
			Store:           ai.inst.StoreStats(),
		}
	}
	return out
}

// counterSet maps engine stats onto the internal/counters proxies (the
// shared Figure 6 mapping), plus the measured wall time so bandwidth and
// work-rate axes are defined.
func counterSet(s graphmat.Stats, wall float64) counters.Set {
	return counters.FromEngine(s.MessagesSent, s.EdgesProcessed, s.Applies, s.ColumnsProbed, wall)
}
