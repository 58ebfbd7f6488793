package graphmat_test

import (
	"context"
	"fmt"
	"testing"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/kernels"
)

// Engine-side benchmarks: the kernel backend × mode × worker matrix for one
// traversal workload (BFS) and one dense iterative workload (PageRank), run
// by make bench-engine. The ingestion benchmarks cover the load path; these
// cover the superstep loop. Dataset size follows GRAPHMAT_BENCH_SHIFT like the figure benchmarks
// (default -3 → RMAT scale 11).
//
// The backend dimension sweeps every SIMD backend the CPU supports plus the
// scalar reference (kernels.Supported()), so one `make bench-engine` run
// records the per-backend end-to-end numbers. PageRank carries the SumFoldF64
// marker and exercises the ScatterAddF64 fold fast path; BFS is a generic
// min-fold and isolates the frontier word-op and scan dispatch.

// engineBenchScale is the RMAT scale at the configured shift.
func engineBenchScale() int { return 14 + benchShift() }

func engineModes() []graphmat.Mode {
	return []graphmat.Mode{graphmat.Pull, graphmat.Push, graphmat.Auto}
}

var engineWorkers = []int{1, 4, 8}

// reportSchedMetrics attaches the scheduler runtime's utilization counters
// to the benchmark result: tasks and steals per op, and busy-util — the
// fraction of worker×wall time spent inside task bodies (1.0 = perfectly
// busy workers).
func reportSchedMetrics(b *testing.B, s graphmat.SchedStats, workers int) {
	b.ReportMetric(float64(s.Tasks)/float64(b.N), "sched-tasks/op")
	b.ReportMetric(float64(s.Steals)/float64(b.N), "steals/op")
	if e := b.Elapsed().Nanoseconds(); e > 0 && workers > 0 {
		b.ReportMetric(float64(s.BusyNS)/float64(e*int64(workers)), "busy-util")
	}
}

// benchBackends runs body once per supported kernel backend under a
// "backend_<name>" sub-benchmark with that backend forced.
func benchBackends(b *testing.B, body func(b *testing.B)) {
	for _, backend := range kernels.Supported() {
		b.Run("backend_"+backend.String(), func(b *testing.B) {
			restore, ok := kernels.ForceBackend(backend)
			if !ok {
				b.Fatalf("backend %s reported supported but ForceBackend refused it", backend)
			}
			defer restore()
			body(b)
		})
	}
}

func BenchmarkEngineBFS(b *testing.B) {
	scale := engineBenchScale()
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 255})
	g, err := algorithms.NewBFSGraph(adj, 0)
	if err != nil {
		b.Fatal(err)
	}
	root := uint32(0)
	var best uint32
	for v := uint32(0); v < g.NumVertices(); v++ {
		if d := g.OutDegree(v); d > best {
			best, root = d, v
		}
	}
	ws := graphmat.NewWorkspace[uint32, uint32](int(g.NumVertices()), graphmat.Bitvector)
	benchBackends(b, func(b *testing.B) {
		for _, mode := range engineModes() {
			for _, workers := range engineWorkers {
				b.Run(fmt.Sprintf("mode_%s/workers_%d", mode, workers), func(b *testing.B) {
					b.SetBytes(g.NumEdges()) // edges traversed per op, for MB/s-style throughput
					var sched graphmat.SchedStats
					for i := 0; i < b.N; i++ {
						_, stats, err := algorithms.RunBFS(context.Background(), g, root,
							algorithms.WithThreads(workers), algorithms.WithMode(mode), algorithms.WithWorkspace(ws))
						if err != nil {
							b.Fatal(err)
						}
						sched.Tasks += stats.Sched.Tasks
						sched.Steals += stats.Sched.Steals
						sched.BusyNS += stats.Sched.BusyNS
					}
					reportSchedMetrics(b, sched, workers)
				})
			}
		}
	})
}

func BenchmarkEnginePageRank(b *testing.B) {
	scale := engineBenchScale()
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 0})
	g, err := algorithms.NewPageRankGraph(adj, 0)
	if err != nil {
		b.Fatal(err)
	}
	ws := graphmat.NewWorkspace[float64, float64](int(g.NumVertices()), graphmat.Bitvector)
	benchBackends(b, func(b *testing.B) {
		for _, mode := range engineModes() {
			for _, workers := range engineWorkers {
				b.Run(fmt.Sprintf("mode_%s/workers_%d", mode, workers), func(b *testing.B) {
					var sched graphmat.SchedStats
					for i := 0; i < b.N; i++ {
						_, stats, err := algorithms.RunPageRank(context.Background(), g, algorithms.WithIterations(10),
							algorithms.WithThreads(workers), algorithms.WithMode(mode), algorithms.WithWorkspace(ws))
						if err != nil {
							b.Fatal(err)
						}
						sched.Tasks += stats.Sched.Tasks
						sched.Steals += stats.Sched.Steals
						sched.BusyNS += stats.Sched.BusyNS
					}
					reportSchedMetrics(b, sched, workers)
				})
			}
		}
	})
}
