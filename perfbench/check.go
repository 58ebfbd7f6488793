package main

import (
	"math"
	"slices"

	"graphmat/internal/gen"
	"graphmat/internal/reference"
	"graphmat/internal/sparse"
)

// prTolerance is the relative error allowed between an engine PageRank and
// reference.PageRank: the two sum contributions in different orders, so
// they agree to rounding, not bit for bit.
const prTolerance = 1e-9

// restartProb is the PageRank teleport probability every workload uses (the
// algorithms package default).
const restartProb = 0.15

// symmetric returns the edge set the bfs instance traverses: every
// non-self-loop edge in both directions.
func symmetric(coo *sparse.COO[float32]) []sparse.Triple[float32] {
	out := make([]sparse.Triple[float32], 0, 2*len(coo.Entries))
	for _, t := range coo.Entries {
		if t.Row != t.Col {
			out = append(out, t, sparse.Triple[float32]{Row: t.Col, Col: t.Row, Val: t.Val})
		}
	}
	return out
}

// bfsMatches reports whether values are exactly the reference hop distances
// from src.
func bfsMatches(n uint32, sym []sparse.Triple[float32], src uint32, values []float64) bool {
	ref := reference.BFS(n, sym, src)
	if len(values) != len(ref) {
		return false
	}
	for v, d := range ref {
		if values[v] != float64(d) {
			return false
		}
	}
	return true
}

// pageRankMatches reports whether values agree with ref within prTolerance.
func pageRankMatches(ref, values []float64) bool {
	if len(values) != len(ref) {
		return false
	}
	for v, want := range ref {
		if math.Abs(values[v]-want) > prTolerance*max(1, math.Abs(want)) {
			return false
		}
	}
	return true
}

// edgeSet is the benchmark's own copy of the raw directed edge set, replayed
// from the base graph and the update stream in stream order (so a later
// update to the same edge wins, as in the server's batches).
type edgeSet struct {
	n     uint32
	edges map[uint64]struct{}
}

func newEdgeSet(coo *sparse.COO[float32]) *edgeSet {
	e := &edgeSet{n: coo.NRows, edges: make(map[uint64]struct{}, len(coo.Entries))}
	for _, t := range coo.Entries {
		e.edges[uint64(t.Row)<<32|uint64(t.Col)] = struct{}{}
	}
	return e
}

func (e *edgeSet) apply(batch []gen.EdgeOp) {
	for _, u := range batch {
		k := uint64(u.Src)<<32 | uint64(u.Dst)
		if u.Del {
			delete(e.edges, k)
		} else {
			e.edges[k] = struct{}{}
		}
	}
}

// pageRankInput returns the directed edges PageRank runs on, self-loops
// removed, in a fixed order.
func (e *edgeSet) pageRankInput() *sparse.COO[float32] {
	keys := make([]uint64, 0, len(e.edges))
	for k := range e.edges {
		if uint32(k>>32) != uint32(k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	coo := sparse.NewCOO[float32](e.n, e.n)
	coo.Entries = make([]sparse.Triple[float32], len(keys))
	for i, k := range keys {
		coo.Entries[i] = sparse.Triple[float32]{Row: uint32(k >> 32), Col: uint32(k), Val: 1}
	}
	return coo
}

// pageRankReference runs reference.PageRank on the edge set as it stands.
func (e *edgeSet) pageRankReference(iters int) []float64 {
	return reference.PageRank(e.n, e.pageRankInput().Entries, restartProb, iters)
}
