package bench

import (
	"context"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/baselines/matrixengine"
	"graphmat/internal/baselines/native"
	"graphmat/internal/baselines/taskengine"
	"graphmat/internal/baselines/vertexengine"
	"graphmat/internal/counters"
	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

// Framework display names. The asterisk marks a from-scratch architectural
// stand-in for the named C++ system (DESIGN.md §1.3).
const (
	FwGraphMat = "GraphMat"
	FwGraphLab = "GraphLab*"
	FwCombBLAS = "CombBLAS*"
	FwGalois   = "Galois*"
	FwNative   = "Native"
)

// Fig4Frameworks is the column order of the Figure 4 plots.
var Fig4Frameworks = []string{FwGraphLab, FwCombBLAS, FwGalois, FwGraphMat}

// RunResult is one timed execution's outcome.
type RunResult struct {
	Value float64 // algorithm-specific checksum (triangle count, Σdist, …)
	Set   counters.Set
	Err   error
}

// Runner is one (algorithm, framework) pair: Prepare builds untimed state
// (the paper excludes graph load time), Execute performs one timed run.
type Runner struct {
	Framework string
	Prepare   func()
	Execute   func() RunResult
}

func cloneCOO(c *sparse.COO[float32]) *sparse.COO[float32] { return c.Clone() }

// maxOutDegreeVertex picks the deterministic traversal root the harness
// uses: the vertex with the most out-edges (a Graph500-style non-trivial
// root).
func maxOutDegreeVertex(c *sparse.COO[float32]) uint32 {
	counts := c.RowCounts()
	best, bestC := uint32(0), uint32(0)
	for v, cc := range counts {
		if cc > bestC {
			best, bestC = uint32(v), cc
		}
	}
	return best
}

// graphMatSet maps engine stats onto the counter proxies.
func graphMatSet(s graphmat.Stats) counters.Set {
	return counters.FromEngine(s.MessagesSent, s.EdgesProcessed, s.Applies, s.ColumnsProbed, 0)
}

func vertexSet(s vertexengine.Stats) counters.Set {
	boxed := s.Gathers + s.Scatters + s.Applies
	return counters.Set{
		WorkItems:     counters.BoxedOpWeight*boxed + s.Signals,
		RandomTouches: 2*s.Gathers + s.Scatters + s.Signals,
		StreamedBytes: 8 * (s.Gathers + s.Scatters),
	}
}

func matrixSet(s matrixengine.Stats) counters.Set {
	return counters.Set{
		WorkItems:     counters.BoxedOpWeight*(s.Multiplies+s.Adds) + 2*s.PartialMerges,
		RandomTouches: s.Adds + 2*s.PartialMerges,
		StreamedBytes: 8*s.Multiplies + 16*s.PartialMerges,
	}
}

func taskSet(s taskengine.Stats, edgeVisits int64) counters.Set {
	return counters.Set{
		WorkItems:     2*s.Tasks + 2*edgeVisits + s.Pushes,
		RandomTouches: edgeVisits + s.Pushes,
		StreamedBytes: 8*edgeVisits + 8*s.Tasks,
	}
}

// --- PageRank (Figure 4a) ---

// PageRankRunners builds one runner per framework for fixed-iteration
// PageRank. data is the raw directed edge list; preprocessing (self-loop
// removal, dedup) is applied uniformly.
func PageRankRunners(data *sparse.COO[float32], threads, iters int) []Runner {
	canon := cloneCOO(data)
	canon.RemoveSelfLoops()
	canon.SortRowMajor()
	canon.DedupKeepFirst()
	m := int64(len(canon.Entries))
	sumRanks := func(r []float64) float64 {
		s := 0.0
		for _, x := range r {
			s += x
		}
		return s
	}

	var gmGraph *graphmat.Graph[algorithms.PRVertex, float32]
	var ve *vertexengine.Engine
	var mx *matrixengine.Matrix
	var mxDeg []uint32
	var tg *taskengine.Graph
	var ng *native.Graph

	return []Runner{
		{
			Framework: FwGraphMat,
			Prepare: func() {
				g, err := algorithms.NewPageRankGraph(cloneCOO(canon), 8*threads)
				if err != nil {
					panic(err)
				}
				gmGraph = g
			},
			Execute: func() RunResult {
				ranks, stats := must(algorithms.RunPageRank(context.Background(), gmGraph,
					algorithms.WithIterations(iters), algorithms.WithThreads(threads)))
				return RunResult{Value: sumRanks(ranks), Set: graphMatSet(stats)}
			},
		},
		{
			Framework: FwGraphLab,
			Prepare:   func() { ve = vertexengine.New(canon) },
			Execute: func() RunResult {
				ranks, stats := vertexengine.PageRank(ve, 0.15, iters, threads)
				return RunResult{Value: sumRanks(ranks), Set: vertexSet(stats)}
			},
		},
		{
			Framework: FwCombBLAS,
			Prepare: func() {
				c := cloneCOO(canon)
				mxDeg = c.RowCounts()
				mx = matrixengine.NewMatrix(c, threads)
			},
			Execute: func() RunResult {
				ranks, stats := matrixengine.PageRank(mx, mxDeg, 0.15, iters)
				return RunResult{Value: sumRanks(ranks), Set: matrixSet(stats)}
			},
		},
		{
			Framework: FwGalois,
			Prepare:   func() { tg = taskengine.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				ranks, stats := taskengine.PageRank(tg, 0.15, iters, threads)
				return RunResult{Value: sumRanks(ranks), Set: taskSet(stats, int64(iters)*m)}
			},
		},
		{
			Framework: FwNative,
			Prepare:   func() { ng = native.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				ranks := native.PageRank(ng, 0.15, iters, threads)
				return RunResult{Value: sumRanks(ranks)}
			},
		},
	}
}

// --- BFS (Figure 4b) ---

// BFSRunners builds runners for breadth-first search; data is symmetrized
// uniformly and the root is the maximum-degree vertex.
func BFSRunners(data *sparse.COO[float32], threads int) []Runner {
	canon := cloneCOO(data)
	canon.RemoveSelfLoops()
	canon.SortRowMajor()
	canon.DedupKeepFirst()
	canon.Symmetrize()
	root := maxOutDegreeVertex(canon)
	m := int64(len(canon.Entries))
	sumDist := func(d []uint32) float64 {
		s := 0.0
		for _, x := range d {
			if x != algorithms.Unreached {
				s += float64(x)
			}
		}
		return s
	}

	var gmGraph *graphmat.Graph[uint32, float32]
	var ve *vertexengine.Engine
	var mx *matrixengine.Matrix
	var tg *taskengine.Graph
	var ng *native.Graph

	return []Runner{
		{
			Framework: FwGraphMat,
			Prepare: func() {
				g, err := algorithms.NewBFSGraph(cloneCOO(canon), 8*threads)
				if err != nil {
					panic(err)
				}
				gmGraph = g
			},
			Execute: func() RunResult {
				d, stats := must(algorithms.RunBFS(context.Background(), gmGraph, root, algorithms.WithThreads(threads)))
				return RunResult{Value: sumDist(d), Set: graphMatSet(stats)}
			},
		},
		{
			Framework: FwGraphLab,
			Prepare:   func() { ve = vertexengine.New(canon) },
			Execute: func() RunResult {
				d, stats := vertexengine.BFS(ve, root, threads)
				return RunResult{Value: sumDist(d), Set: vertexSet(stats)}
			},
		},
		{
			Framework: FwCombBLAS,
			Prepare:   func() { mx = matrixengine.NewMatrix(cloneCOO(canon), threads) },
			Execute: func() RunResult {
				d, stats := matrixengine.BFS(mx, root)
				return RunResult{Value: sumDist(d), Set: matrixSet(stats)}
			},
		},
		{
			Framework: FwGalois,
			Prepare:   func() { tg = taskengine.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				d, stats := taskengine.BFS(tg, root, threads)
				visits := stats.Tasks * m / int64(maxI64(1, int64(tg.N)))
				return RunResult{Value: sumDist(d), Set: taskSet(stats, visits)}
			},
		},
		{
			Framework: FwNative,
			Prepare:   func() { ng = native.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				d := native.BFS(ng, root, threads)
				return RunResult{Value: sumDist(d)}
			},
		},
	}
}

// --- SSSP (Figure 4e) ---

// SSSPRunners builds runners for single-source shortest paths on the
// weighted directed graph.
func SSSPRunners(data *sparse.COO[float32], threads int, delta float32) []Runner {
	canon := cloneCOO(data)
	canon.RemoveSelfLoops()
	canon.SortRowMajor()
	canon.DedupKeepFirst()
	root := maxOutDegreeVertex(canon)
	m := int64(len(canon.Entries))
	sumDist := func(d []float32) float64 {
		s := 0.0
		for _, x := range d {
			if x != algorithms.InfDist {
				s += float64(x)
			}
		}
		return s
	}

	var gmGraph *graphmat.Graph[float32, float32]
	var ve *vertexengine.Engine
	var mx *matrixengine.Matrix
	var tg *taskengine.Graph
	var ng *native.Graph

	return []Runner{
		{
			Framework: FwGraphMat,
			Prepare: func() {
				g, err := algorithms.NewSSSPGraph(cloneCOO(canon), 8*threads)
				if err != nil {
					panic(err)
				}
				gmGraph = g
			},
			Execute: func() RunResult {
				d, stats := must(algorithms.RunSSSP(context.Background(), gmGraph, root, algorithms.WithThreads(threads)))
				return RunResult{Value: sumDist(d), Set: graphMatSet(stats)}
			},
		},
		{
			Framework: FwGraphLab,
			Prepare:   func() { ve = vertexengine.New(canon) },
			Execute: func() RunResult {
				d, stats := vertexengine.SSSP(ve, root, threads)
				return RunResult{Value: sumDist(d), Set: vertexSet(stats)}
			},
		},
		{
			Framework: FwCombBLAS,
			Prepare:   func() { mx = matrixengine.NewMatrix(cloneCOO(canon), threads) },
			Execute: func() RunResult {
				d, stats := matrixengine.SSSP(mx, root)
				return RunResult{Value: sumDist(d), Set: matrixSet(stats)}
			},
		},
		{
			Framework: FwGalois,
			Prepare:   func() { tg = taskengine.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				d, stats := taskengine.SSSP(tg, root, delta, threads)
				visits := stats.Tasks * m / int64(maxI64(1, int64(tg.N)))
				return RunResult{Value: sumDist(d), Set: taskSet(stats, visits)}
			},
		},
		{
			Framework: FwNative,
			Prepare:   func() { ng = native.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				d := native.SSSP(ng, root, threads)
				return RunResult{Value: sumDist(d)}
			},
		},
	}
}

// --- Triangle counting (Figure 4c) ---

// TCRunners builds runners for triangle counting on the upper-triangular
// DAG. spgemmCap bounds CombBLAS's materialized intermediate (<=0 uses the
// default); exceeding it is reported as the run's error, matching the
// paper's "fails to complete" entries.
func TCRunners(data *sparse.COO[float32], threads int, spgemmCap int64) []Runner {
	canon := cloneCOO(data)
	canon.RemoveSelfLoops()
	canon.SortRowMajor()
	canon.DedupKeepFirst()
	canon.Symmetrize()
	canon.UpperTriangle()

	// intersectWork is the merge cost both sorted-intersection engines pay:
	// for every edge (u,v), a linear merge of the two endpoint adjacency
	// lists, Σ (deg(u)+deg(v)). The SpMV edge tallies alone would undercount
	// TC work (the real work hides inside ProcessMessage), so the Figure 6
	// "instructions" proxy adds it explicitly for the engines that do it.
	csr := sparse.BuildCSR(cloneCOO(canon))
	var intersectWork int64
	for u := uint32(0); u < csr.NRows; u++ {
		nbrs, _ := csr.Row(u)
		du := int64(len(nbrs))
		for _, v := range nbrs {
			intersectWork += du + int64(csr.Degree(v))
		}
	}
	// The hash-based engine (GraphLab's cuckoo-set strategy) probes once per
	// element of the incoming list instead of merging.
	var hashProbes int64
	for u := uint32(0); u < csr.NRows; u++ {
		nbrs, _ := csr.Row(u)
		for _, v := range nbrs {
			_ = v
			hashProbes += int64(len(nbrs))
		}
	}

	var gmGraph *graphmat.Graph[algorithms.TCVertex, float32]
	var ve *vertexengine.Engine
	var mxCSR *sparse.CSR[float32]
	var tg *taskengine.Graph
	var ng *native.Graph

	return []Runner{
		{
			Framework: FwGraphMat,
			Prepare: func() {
				g, err := algorithms.NewTriangleGraph(cloneCOO(canon), 8*threads)
				if err != nil {
					panic(err)
				}
				gmGraph = g
			},
			Execute: func() RunResult {
				count, stats := must(algorithms.RunTriangleCount(context.Background(), gmGraph, algorithms.WithThreads(threads)))
				set := graphMatSet(stats)
				set.WorkItems += intersectWork
				set.StreamedBytes += 4 * intersectWork // sorted lists stream
				return RunResult{Value: float64(count), Set: set}
			},
		},
		{
			Framework: FwGraphLab,
			Prepare:   func() { ve = vertexengine.New(canon) },
			Execute: func() RunResult {
				count, stats := vertexengine.Triangles(ve, threads)
				set := vertexSet(stats)
				set.WorkItems += hashProbes
				set.RandomTouches += hashProbes // hash probes have no locality
				return RunResult{Value: float64(count), Set: set}
			},
		},
		{
			Framework: FwCombBLAS,
			Prepare:   func() { mxCSR = sparse.BuildCSR(cloneCOO(canon)) },
			Execute: func() RunResult {
				count, stats, err := matrixengine.Triangles(mxCSR, spgemmCap)
				return RunResult{Value: float64(count), Set: matrixSet(stats), Err: err}
			},
		},
		{
			Framework: FwGalois,
			Prepare:   func() { tg = taskengine.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				count, stats := taskengine.Triangles(tg, threads)
				set := taskSet(stats, 2*int64(csr.NNZ()))
				set.WorkItems += intersectWork
				set.StreamedBytes += 4 * intersectWork
				return RunResult{Value: float64(count), Set: set}
			},
		},
		{
			Framework: FwNative,
			Prepare:   func() { ng = native.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				count := native.Triangles(ng, threads)
				return RunResult{Value: float64(count)}
			},
		},
	}
}

// --- Collaborative filtering (Figure 4d) ---

// CFRunners builds runners for gradient-descent matrix factorization. data
// holds user→item rating triples; all frameworks receive the same
// symmetrized graph and identical deterministic factor initialization.
func CFRunners(data *sparse.COO[float32], threads, iters int) []Runner {
	const seed = 77
	canon := cloneCOO(data)
	canon.RemoveSelfLoops()
	canon.SortRowMajor()
	canon.DedupKeepFirst()
	canon.Symmetrize()
	n := int(canon.NRows)
	m := int64(len(canon.Entries))
	const gamma, lambda = 0.001, 0.05

	// One deterministic init stream shared by every framework, identical to
	// algorithms.CFContext's internal stream for the same seed.
	rng := gen.NewRNG(seed)
	inits := make([]float32, n*algorithms.LatentDim)
	for i := range inits {
		inits[i] = float32(rng.Float64()) * 0.1
	}
	init := func(v, k int) float32 { return inits[v*algorithms.LatentDim+k] }

	checksum := func(get func(v, k int) float32) float64 {
		s := 0.0
		for v := 0; v < n; v += 17 {
			for k := 0; k < algorithms.LatentDim; k++ {
				s += float64(get(v, k))
			}
		}
		return s
	}

	var gmGraph *graphmat.Graph[algorithms.CFVec, float32]
	var ve *vertexengine.Engine
	var mxCSR *sparse.CSR[float32]
	var tg *taskengine.Graph
	var ng *native.Graph

	return []Runner{
		{
			Framework: FwGraphMat,
			Prepare: func() {
				g, err := algorithms.NewCFGraph(cloneCOO(canon), 8*threads)
				if err != nil {
					panic(err)
				}
				gmGraph = g
			},
			Execute: func() RunResult {
				f, stats := must(algorithms.CFContext(context.Background(), gmGraph, algorithms.CFOptions{
					Gamma: gamma, Lambda: lambda, Iterations: iters, InitSeed: seed,
					Config: graphmat.Config{Threads: threads},
				}, nil))
				return RunResult{Value: checksum(func(v, k int) float32 { return f[v][k] }), Set: graphMatSet(stats)}
			},
		},
		{
			Framework: FwGraphLab,
			Prepare:   func() { ve = vertexengine.New(canon) },
			Execute: func() RunResult {
				f, stats := vertexengine.CF(ve, gamma, lambda, iters, threads, init)
				return RunResult{Value: checksum(func(v, k int) float32 { return f[v][k] }), Set: vertexSet(stats)}
			},
		},
		{
			Framework: FwCombBLAS,
			Prepare:   func() { mxCSR = sparse.BuildCSR(cloneCOO(canon)) },
			Execute: func() RunResult {
				f, stats := matrixengine.CF(mxCSR, gamma, lambda, iters, init)
				set := matrixSet(stats)
				// The materialization passes stream the nnz-sized K-vector
				// buffers (the CombBLAS CF data-movement tax).
				set.StreamedBytes += int64(iters) * m * int64(algorithms.LatentDim) * 4 * 3
				return RunResult{Value: checksum(func(v, k int) float32 { return f[v][k] }), Set: set}
			},
		},
		{
			Framework: FwGalois,
			Prepare:   func() { tg = taskengine.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				f, stats := taskengine.CF(tg, gamma, lambda, iters, threads, init)
				return RunResult{Value: checksum(func(v, k int) float32 { return f[v][k] }), Set: taskSet(stats, int64(iters)*m)}
			},
		},
		{
			Framework: FwNative,
			Prepare:   func() { ng = native.Build(cloneCOO(canon)) },
			Execute: func() RunResult {
				f := native.CF(ng, gamma, lambda, iters, threads, init)
				return RunResult{Value: checksum(func(v, k int) float32 { return f[v][k] })}
			},
		},
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// PageRankRunnerWithPartitions is the GraphMat PageRank runner with an
// explicit partition count, for the partition-sensitivity ablation bench.
func PageRankRunnerWithPartitions(data *sparse.COO[float32], threads, iters, partitions int) Runner {
	canon := data
	canon.RemoveSelfLoops()
	canon.SortRowMajor()
	canon.DedupKeepFirst()
	var g *graphmat.Graph[algorithms.PRVertex, float32]
	return Runner{
		Framework: FwGraphMat,
		Prepare: func() {
			gg, err := algorithms.NewPageRankGraph(canon, partitions)
			if err != nil {
				panic(err)
			}
			g = gg
		},
		Execute: func() RunResult {
			ranks, stats := must(algorithms.RunPageRank(context.Background(), g,
				algorithms.WithIterations(iters), algorithms.WithThreads(threads)))
			s := 0.0
			for _, r := range ranks {
				s += r
			}
			return RunResult{Value: s, Set: graphMatSet(stats)}
		},
	}
}
