package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/snap"
)

// probeRepeats is how many times a set-up-sized layer call is timed; the
// metric is the median.
const probeRepeats = 3

// probeParseBuild times graph.ParseEdgeList on the upload bytes and the
// workload's graph build on its result.
func probeParseBuild(in *inputs, build func(*graphmat.COO[float32]) error) (parseS, buildS float64, err error) {
	var coo *graphmat.COO[float32]
	parseS, err = timeMedian(probeRepeats, func() error {
		var err error
		coo, err = graph.ParseEdgeList(in.upload, graph.LoadOptions{})
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("probe parse: %w", err)
	}
	buildS, err = timeMedian(probeRepeats, func() error { return build(coo.Clone()) })
	if err != nil {
		return 0, 0, fmt.Errorf("probe build: %w", err)
	}
	return parseS, buildS, nil
}

// specBuild is the build the server runs for a registry algorithm.
func specBuild(algo string) func(*graphmat.COO[float32]) error {
	return func(adj *graphmat.COO[float32]) error {
		spec, ok := algorithms.Lookup(algo)
		if !ok {
			return fmt.Errorf("no algorithm %q", algo)
		}
		_, err := spec.Build(adj, 0)
		return err
	}
}

// probeWAL times snap.WAL.Append, fsync included, for the first batches of
// the update stream on a scratch log in dir, one span each.
func probeWAL(tr *tracer, dir string, batches [][]gen.EdgeOp) error {
	w, err := snap.CreateWAL(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer w.Close()
	for i, b := range batches {
		recs := make([]snap.WALUpdate, len(b))
		for j, u := range b {
			recs[j] = snap.WALUpdate{Src: u.Src, Dst: u.Dst, Val: u.Weight, Del: u.Del}
		}
		start := time.Now()
		if err := w.Append(uint64(i+1), recs); err != nil {
			return err
		}
		tr.leaf("snap.WAL.Append", tr.id(), 0, start, time.Now())
	}
	return w.Close()
}

// probeSnapWrite times graphmat.StoreImage plus graphmat.WriteSnap of the
// pagerank store over the base graph, one span each, and returns the median
// in ms.
func probeSnapWrite(tr *tracer, dir string, in *inputs) (float64, error) {
	st, err := algorithms.NewPageRankStore(in.coo.Clone(), 0)
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := range probeRepeats {
		start := time.Now()
		img, err := graphmat.StoreImage(st, 0)
		if err != nil {
			return 0, err
		}
		if err := graphmat.WriteSnap(filepath.Join(dir, fmt.Sprintf("probe-%d.snap", i)), img); err != nil {
			return 0, err
		}
		end := time.Now()
		tr.leaf("snap.write", tr.id(), 0, start, end)
		ds = append(ds, ms(end.Sub(start)))
	}
	return median(ds), nil
}

// staticPageRankMS times RunPageRank on a graph built once from coo, the
// way the static-pagerank workload calls it, and returns the median of
// runs calls in ms after one warm-up.
func staticPageRankMS(coo *graphmat.COO[float32], iters, runs int) (float64, error) {
	g, err := algorithms.NewPageRankGraph(coo, 0)
	if err != nil {
		return 0, err
	}
	ws := graphmat.NewWorkspace[float64, float64](int(g.NumVertices()), graphmat.Bitvector)
	var ds []float64
	for i := range runs + 1 {
		start := time.Now()
		if _, _, err := algorithms.RunPageRank(context.Background(), g,
			algorithms.WithIterations(iters), algorithms.WithTolerance(0), algorithms.WithWorkspace(ws)); err != nil {
			return 0, err
		}
		if i > 0 {
			ds = append(ds, ms(time.Since(start)))
		}
	}
	return median(ds), nil
}
