package algorithms

import (
	"fmt"

	"graphmat"
)

// Live-update plumbing for the registry: every ready-made algorithm builds
// its property graph with its own preprocessing of the raw edges (§5.1 —
// self-loop removal, symmetrization, upper-triangle restriction), so a raw
// edge update cannot be applied verbatim: it must be translated into the
// property-graph mutations that preprocessing implies. The translation of a
// delete on a symmetrized graph needs to know whether the REVERSE raw edge
// still exists — that context comes from the EdgeLookup oracle over the
// post-batch raw edge set, which the serving layer maintains as its master
// copy.

// EdgeUpdate is one raw edge mutation (weighted, Del for deletes).
type EdgeUpdate = graphmat.EdgeUpdate

// EdgeLookup reports whether the raw directed edge src→dst exists AFTER the
// batch being applied, and its weight. Implementations are typically a
// binary search over the caller's updated master adjacency
// (graphmat.LookupEdge-style).
type EdgeLookup = func(src, dst uint32) (float32, bool)

// UpdateResult reports what one translated batch did to a property graph.
type UpdateResult = graphmat.ApplyResult

// updateKind classifies an algorithm's preprocessing for update translation.
type updateKind int

const (
	// updDirected: self-loops dropped, directed edges kept as-is
	// (pagerank, ppr, hits, sssp, reachability, widest).
	updDirected updateKind = iota
	// updSymmetric: self-loops dropped, edge set symmetrized with original
	// edges taking value precedence over replicated reversals
	// (bfs, components, cf).
	updSymmetric
	// updUpperTriangle: symmetrized then restricted to src < dst
	// (triangles).
	updUpperTriangle
)

// preprocess applies an algorithm's preprocessing (§5.1) to raw adjacency
// triples in place and returns them: self-loops are always removed;
// updSymmetric and updUpperTriangle also symmetrize the deduplicated edge
// set, and updUpperTriangle then keeps only the edges u→v with u < v.
func preprocess(adj *graphmat.COO[float32], kind updateKind) *graphmat.COO[float32] {
	adj.RemoveSelfLoops()
	if kind != updDirected {
		adj.SortRowMajor()
		adj.DedupKeepFirst()
		adj.Symmetrize()
	}
	if kind == updUpperTriangle {
		adj.UpperTriangle()
	}
	return adj
}

// translateUpdates maps raw edge updates into the property-graph updates an
// algorithm's preprocessing implies. The lookup must reflect the POST-batch
// raw state; translating every update of a batch against that final state is
// idempotent per key, so repeated keys collapse correctly under the store's
// last-write-wins batch semantics.
func translateUpdates(kind updateKind, batch []EdgeUpdate, lookup EdgeLookup) ([]EdgeUpdate, error) {
	if kind != updDirected && lookup == nil {
		return nil, fmt.Errorf("algorithms: updating a symmetrized property graph requires an edge lookup over the raw edge set")
	}
	out := make([]EdgeUpdate, 0, 2*len(batch))
	for _, u := range batch {
		if u.Src == u.Dst {
			continue // every registry algorithm removes self-loops
		}
		switch kind {
		case updDirected:
			out = append(out, u)
		case updSymmetric:
			wUV, okUV := lookup(u.Src, u.Dst)
			wVU, okVU := lookup(u.Dst, u.Src)
			out = append(out,
				symState(u.Src, u.Dst, wUV, okUV, wVU, okVU),
				symState(u.Dst, u.Src, wVU, okVU, wUV, okUV))
		case updUpperTriangle:
			a, b := min(u.Src, u.Dst), max(u.Src, u.Dst)
			wAB, okAB := lookup(a, b)
			wBA, okBA := lookup(b, a)
			out = append(out, symState(a, b, wAB, okAB, wBA, okBA))
		}
	}
	return out, nil
}

// symState computes the post-batch property edge src→dst of a symmetrized
// graph: present with the forward raw weight if that edge exists, with the
// reverse raw weight if only the reversal does (Symmetrize's keep-first
// precedence — the original edge beats the replicated reversal), deleted
// otherwise.
func symState(src, dst uint32, wOwn float32, okOwn bool, wRev float32, okRev bool) EdgeUpdate {
	switch {
	case okOwn:
		return EdgeUpdate{Src: src, Dst: dst, Val: wOwn}
	case okRev:
		return EdgeUpdate{Src: src, Dst: dst, Val: wRev}
	default:
		return EdgeUpdate{Src: src, Dst: dst, Del: true}
	}
}

// liveGraph is the store-backed half every registry instance embeds: it owns
// the versioned property graph and implements the Instance interface's
// update and epoch surface. V is the algorithm's vertex property type.
type liveGraph[V any] struct {
	store *graphmat.Store[V, float32]
	kind  updateKind
}

// ApplyUpdates translates a raw edge batch through the algorithm's
// preprocessing and applies it to the property graph, publishing a new
// snapshot epoch. Runs in flight keep their pinned epoch.
func (l *liveGraph[V]) ApplyUpdates(batch []EdgeUpdate, lookup EdgeLookup) (UpdateResult, error) {
	prop, err := translateUpdates(l.kind, batch, lookup)
	if err != nil {
		return UpdateResult{}, err
	}
	return l.store.ApplyEdges(prop)
}

// Epoch reports the property graph's current snapshot epoch (batches applied
// to this instance).
func (l *liveGraph[V]) Epoch() uint64 { return l.store.Epoch() }

// StoreStats exposes the underlying store's counters (overlay size,
// compactions, pinned snapshots).
func (l *liveGraph[V]) StoreStats() graphmat.StoreStats { return l.store.Stats() }

// NumVertices reports the property graph's vertex count (fixed across
// epochs).
func (l *liveGraph[V]) NumVertices() uint32 { return l.store.NumVertices() }

// NumEdges reports the current snapshot's property edge count.
func (l *liveGraph[V]) NumEdges() int64 { return l.store.NumEdges() }

// SnapImage captures a persistable GMATSNAP image of the property graph,
// compacting any pending overlay first (the snapshot format carries base
// structures only; the WAL owns whatever landed since).
func (l *liveGraph[V]) SnapImage(tag uint64) (*graphmat.SnapImage, error) {
	return graphmat.StoreImage[V](l.store, tag)
}

// OnCompact registers the store's persistent-mode hook; see
// graphmat.Store.OnCompact for the constraints on fn.
func (l *liveGraph[V]) OnCompact(fn func(epoch uint64)) { l.store.OnCompact(fn) }

// AcquirePin pins the current property-graph snapshot, transferring
// ownership (and the one-Release obligation) to the caller.
func (l *liveGraph[V]) AcquirePin() Pin {
	return l.store.Acquire()
}

// NewRawEdgeLookup adapts a normalized raw adjacency (row-major sorted,
// deduplicated — graphmat.NormalizeAdjacency) into the EdgeLookup oracle
// ApplyUpdates needs. The adjacency must already reflect the batch being
// applied.
func NewRawEdgeLookup(adj *graphmat.COO[float32]) EdgeLookup {
	return func(src, dst uint32) (float32, bool) {
		return graphmat.LookupEdge(adj, src, dst)
	}
}
