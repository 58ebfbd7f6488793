package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/graph"
)

// runStaticPageRank is the paper's own measurement: one in-process caller
// runs algorithms.RunPageRank in a closed loop on a graph built once, with
// one reused workspace. No HTTP, encoding, store overlay or persistence.
func runStaticPageRank(cfg config, in *inputs, o options) (*report, error) {
	rep := newReport()
	ref := newEdgeSet(in.coo).pageRankReference(cfg.PRIters)
	opts := func(ws any, obs algorithms.Observer) []algorithms.Option {
		return []algorithms.Option{algorithms.WithIterations(cfg.PRIters), algorithms.WithTolerance(0),
			algorithms.WithWorkspace(ws), algorithms.WithObserver(obs)}
	}

	// Set-up is what a library user pays from the edge list bytes to the
	// first answer: parse, build, first run.
	var g *graphmat.Graph[algorithms.PRVertex, float32]
	var ws *graphmat.Workspace[float64, float64]
	var setups []float64
	for range cfg.Setups {
		start := time.Now()
		coo, err := graph.ParseEdgeList(in.upload, graph.LoadOptions{})
		if err != nil {
			return nil, err
		}
		if g, err = algorithms.NewPageRankGraph(coo, 0); err != nil {
			return nil, err
		}
		ws = graphmat.NewWorkspace[float64, float64](int(g.NumVertices()), graphmat.Bitvector)
		ranks, _, err := algorithms.RunPageRank(context.Background(), g, opts(ws, nil)...)
		setups = append(setups, time.Since(start).Seconds())
		rep.count(err == nil && pageRankMatches(ref, ranks))
	}
	rep.set("setup_s", median(setups))

	seconds := o.Seconds
	if o.Trace {
		seconds /= 2
	}
	d := time.Duration(seconds * float64(time.Second))
	// Reservoir-sample cfg.Samples answers for the output check.
	pick := in.rng(6)
	var kept [][]float64
	loop := func(tr *tracer, tally *coreTally) []float64 {
		var lat []float64
		start := time.Now()
		for i := 0; time.Since(start) < d; i++ {
			var req, root, coreID int64
			var obs algorithms.Observer
			if tr != nil {
				req, root, coreID = tr.id(), tr.id(), tr.id()
				obs = stepObserver(tr, req, coreID)
			}
			t0 := time.Now()
			ranks, stats, err := algorithms.RunPageRank(context.Background(), g, opts(ws, obs)...)
			t1 := time.Now()
			lat = append(lat, ms(t1.Sub(t0)))
			rep.count(err == nil)
			if tr != nil {
				tr.add("core.RunPageRank", req, coreID, root, t0, t1)
				tr.add("request", req, root, 0, t0, t1)
				tally.add(stats, t1.Sub(t0))
			}
			if len(kept) < cfg.Samples {
				kept = append(kept, ranks)
			} else if j := pick.IntN(i + 1); j < cfg.Samples {
				kept[j] = ranks
			}
		}
		return lat
	}

	rt0 := readRuntime()
	start := time.Now()
	lat := loop(nil, nil)
	wall := time.Since(start)
	rt1 := readRuntime()
	rep.set("heap_live_mb", liveHeapMB())
	rep.set("latency_p50_ms", windowedQuantile(lat, 0.5))
	rep.set("latency_p95_ms", windowedQuantile(lat, 0.95))
	rep.set("throughput_rps", float64(len(lat))/wall.Seconds())
	fmt.Fprintf(os.Stderr, "perfbench: static-pagerank %d runs in %.1fs\n", len(lat), wall.Seconds())
	if !o.Trace {
		checkRanks(rep, ref, kept)
		return rep, nil
	}

	rep.setRuntime(rt0, rt1, len(lat))
	tr := newTracer()
	rep.tr = tr
	tally := coreTally{edgeBytes: 8, msgBytes: 8, propBytes: 16}
	tracedLat := loop(tr, &tally)
	checkRanks(rep, ref, kept)
	rep.set("trace.overhead_p50_ms", median(tracedLat)-median(lat))
	rep.set("core.run_p50_ms", median(tr.durations("core.RunPageRank")))
	rep.setCore(&tally, tr)
	parse, build, err := probeParseBuild(in, func(adj *graphmat.COO[float32]) error {
		_, err := algorithms.NewPageRankGraph(adj, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.set("graph.parse_s", parse)
	rep.set("graph.build_s", build)
	return rep, nil
}

// checkRanks compares the sampled answers with the reference ranks.
func checkRanks(rep *report, ref []float64, kept [][]float64) {
	for _, ranks := range kept {
		rep.count(pageRankMatches(ref, ranks))
	}
}
