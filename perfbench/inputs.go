package main

import (
	"math/rand/v2"
	"slices"
	"strconv"

	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

// inputs is everything a run derives from its seed. The program under test
// sees only these: the upload body, the request sources and the update
// batches.
type inputs struct {
	seed uint64
	// n is the vertex count the server infers from the upload: one more
	// than the largest id in the edge list.
	n   uint32
	coo *sparse.COO[float32]
	// upload is the edge list body ("src dst" lines) of coo.
	upload []byte
	// sources lists the vertices with at least one non-self-loop edge.
	sources []uint32
}

func makeInputs(cfg config, seed uint64) *inputs {
	coo := gen.RMAT(gen.RMATOptions{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: seed})
	var maxID uint32
	hasEdge := make([]bool, coo.NRows)
	for _, t := range coo.Entries {
		maxID = max(maxID, t.Row, t.Col)
		if t.Row != t.Col {
			hasEdge[t.Row], hasEdge[t.Col] = true, true
		}
	}
	coo.NRows, coo.NCols = maxID+1, maxID+1
	in := &inputs{seed: seed, n: maxID + 1, coo: coo}
	for v, ok := range hasEdge {
		if ok {
			in.sources = append(in.sources, uint32(v))
		}
	}
	in.upload = make([]byte, 0, 12*len(coo.Entries))
	for _, t := range coo.Entries {
		in.upload = strconv.AppendUint(in.upload, uint64(t.Row), 10)
		in.upload = append(in.upload, ' ')
		in.upload = strconv.AppendUint(in.upload, uint64(t.Col), 10)
		in.upload = append(in.upload, '\n')
	}
	return in
}

// rng returns a generator for one named stream of the run's inputs, so
// adding a stream never shifts another.
func (in *inputs) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(in.seed, stream))
}

// sample picks k distinct indices in [0, n), sorted ascending.
func (in *inputs) sample(k, n int, stream uint64) []int {
	if k > n {
		k = n
	}
	idx := in.rng(stream).Perm(n)[:k]
	slices.Sort(idx)
	return idx
}

// updateBatches cuts a gen.Updates stream (30% deletes of base edges, 70%
// inserts) into count batches of size each.
func (in *inputs) updateBatches(count, size int) [][]gen.EdgeOp {
	ops := gen.Updates(in.coo, gen.UpdateOptions{Count: count * size, DeleteFraction: 0.3, Seed: in.seed})
	out := make([][]gen.EdgeOp, count)
	for i := range out {
		out[i] = ops[i*size : (i+1)*size]
	}
	return out
}

// updateBody renders a batch in the text update form the edges endpoint
// accepts with ?format=edgelist.
func updateBody(batch []gen.EdgeOp) []byte {
	b := make([]byte, 0, 24*len(batch))
	for _, u := range batch {
		if u.Del {
			b = append(b, "del "...)
		} else {
			b = append(b, "add "...)
		}
		b = strconv.AppendUint(b, uint64(u.Src), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(u.Dst), 10)
		if !u.Del {
			b = append(b, ' ')
			b = strconv.AppendFloat(b, float64(u.Weight), 'g', -1, 32)
		}
		b = append(b, '\n')
	}
	return b
}
