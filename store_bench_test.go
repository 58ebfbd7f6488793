package graphmat_test

import (
	"fmt"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// Store-side benchmarks: the cost of landing an update batch as delta
// overlays (BenchmarkApplyEdges) and of folding the overlay back into the
// base through the parallel rebuild (BenchmarkCompaction), run by make
// bench-store. Dataset size follows GRAPHMAT_BENCH_SHIFT like the other
// benchmarks (default -3 → RMAT scale 11); the batch is 1% of the
// edges, the acceptance test's shape.

// storeBenchFixture builds a Both-direction store and its 1% update batch.
func storeBenchFixture(b *testing.B, compactFraction float64) (*graphmat.Store[uint32, float32], []graphmat.EdgeUpdate) {
	b.Helper()
	scale := 14 + benchShift()
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 255})
	ops := gen.Updates(adj, gen.UpdateOptions{Count: len(adj.Entries) / 100, DeleteFraction: 0.3, MaxWeight: 255, Seed: 9})
	batch := make([]graphmat.EdgeUpdate, len(ops))
	for i, op := range ops {
		batch[i] = graphmat.EdgeUpdate{Src: op.Src, Dst: op.Dst, Val: op.Weight, Del: op.Del}
	}
	st, err := graphmat.NewStore[uint32](adj, graphmat.Options{
		Directions:      graph.Both,
		CompactFraction: compactFraction,
	})
	if err != nil {
		b.Fatal(err)
	}
	return st, batch
}

// invert flips a batch so applying batch then invert(batch) restores the
// prior live edge set size class: inserts become deletes and vice versa
// (deleted edges are re-inserted with weight 1). Keeps the overlay bounded
// across b.N iterations.
func invert(batch []graphmat.EdgeUpdate) []graphmat.EdgeUpdate {
	out := make([]graphmat.EdgeUpdate, len(batch))
	for i, u := range batch {
		out[i] = graphmat.EdgeUpdate{Src: u.Src, Dst: u.Dst, Val: 1, Del: !u.Del}
	}
	return out
}

func BenchmarkApplyEdges(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			scale := 14 + benchShift()
			adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 255})
			ops := gen.Updates(adj, gen.UpdateOptions{Count: len(adj.Entries) / 100, DeleteFraction: 0.3, MaxWeight: 255, Seed: 9})
			batch := make([]graphmat.EdgeUpdate, len(ops))
			for i, op := range ops {
				batch[i] = graphmat.EdgeUpdate{Src: op.Src, Dst: op.Dst, Val: op.Weight, Del: op.Del}
			}
			st, err := graphmat.NewStore[uint32](adj, graphmat.Options{
				Directions:      graph.Both,
				Workers:         workers,
				CompactFraction: -1, // measure pure overlay application
			})
			if err != nil {
				b.Fatal(err)
			}
			inverse := invert(batch)
			b.SetBytes(int64(len(batch)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				use := batch
				if i%2 == 1 {
					use = inverse
				}
				if _, err := st.ApplyEdges(use); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompaction(b *testing.B) {
	st, batch := storeBenchFixture(b, -1)
	inverse := invert(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		use := batch
		if i%2 == 1 {
			use = inverse
		}
		if _, err := st.ApplyEdges(use); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st.Compact()
	}
	if st.Stats().OverlayNNZ != 0 {
		b.Fatalf("overlay survived compaction: %+v", st.Stats())
	}
}
