package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/server"
)

const edgesPath = "/v1/graphs/" + graphName + "/edges?format=edgelist"

// runLivePageRank drives one closed-loop connection alternating an update
// batch (acked after its WAL fsync) with a full PageRank query, on a server
// persisting to a fresh data directory. The cycle count is fixed by the
// run length, not by the clock, so every run on every commit applies the
// same batches and hits the same compactions and checkpoints.
func runLivePageRank(cfg config, in *inputs, o options) (*report, error) {
	rep := newReport()
	cycles := max(2, int(math.Round(cfg.CyclesPerSecond*o.Seconds)))
	batches := in.updateBatches(cycles, cfg.UpdateBatch)
	bodies := make([][]byte, cycles)
	for c, b := range batches {
		bodies[c] = updateBody(b)
	}
	query := pageRankRequest(cfg.PRIters)
	root, err := os.MkdirTemp(o.OutDir, "live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	base := newEdgeSet(in.coo)
	ref0 := base.pageRankReference(cfg.PRIters)
	var svc *service
	var dir string
	var setups []float64
	var buf bytes.Buffer
	for i := range cfg.Setups {
		if svc != nil {
			svc.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(root, fmt.Sprintf("data%d", i))
		start := time.Now()
		s, err := startService(server.Config{DataDir: dir}, in)
		if err != nil {
			return nil, err
		}
		svc = s
		status, err := svc.post(svc.url(false, runPath), query, "", &buf)
		setups = append(setups, time.Since(start).Seconds())
		ok := err == nil && status == http.StatusOK
		if ok {
			a, err := decodeAnswer(buf.Bytes())
			ok = err == nil && a.Epoch == 0 && pageRankMatches(ref0, a.Values)
		}
		rep.count(ok)
	}
	defer svc.close()
	rep.set("setup_s", median(setups))

	half := cycles
	if o.Trace {
		half = cycles / 2
	}
	keep := in.sample(cfg.Samples, cycles, 5)
	kept := make(map[int][]byte)
	// cycle sends update c and then the query; with refs set, both go to
	// the traced listener under those span references.
	cycle := func(c int, upRef, qRef string) cycleTimes {
		var t cycleTimes
		traced := upRef != ""
		t.u0 = time.Now()
		status, err := svc.post(svc.url(traced, edgesPath), bodies[c], upRef, &buf)
		t.u1 = time.Now()
		rep.count(err == nil && status == http.StatusOK)
		t.q0 = time.Now()
		status, err = svc.post(svc.url(traced, runPath), query, qRef, &buf)
		t.q1 = time.Now()
		t.bytes = buf.Len()
		t.serverMS, t.ok = durationMS(buf.Bytes())
		t.ok = t.ok && err == nil && status == http.StatusOK
		rep.count(t.ok)
		if slices.Contains(keep, c) {
			kept[c] = bytes.Clone(buf.Bytes())
		}
		return t
	}

	var upd, lat, unattributed, sizes []float64
	okRuns := 0
	rt0 := readRuntime()
	start := time.Now()
	for c := range half {
		t := cycle(c, "", "")
		upd = append(upd, ms(t.u1.Sub(t.u0)))
		lat = append(lat, ms(t.q1.Sub(t.q0)))
		if t.ok {
			okRuns++
			unattributed = append(unattributed, ms(t.q1.Sub(t.q0))-t.serverMS)
			sizes = append(sizes, float64(t.bytes)/1024)
		}
	}
	wall := time.Since(start)
	rt1 := readRuntime()
	rep.set("heap_live_mb", liveHeapMB())
	rep.set("latency_p50_ms", windowedQuantile(lat, 0.5))
	rep.set("latency_p95_ms", windowedQuantile(lat, 0.95))
	rep.set("throughput_rps", float64(okRuns)/wall.Seconds())
	rep.set("server.unattributed_p50_ms", median(unattributed))
	rep.setRuntime(rt0, rt1, 2*half)

	var tr *tracer
	var side *sideCore
	var tracedLat, plainLat, applies, compacting, overlay []float64
	if o.Trace {
		tr = newTracer()
		rep.tr = tr
		if side, err = newSideCore(in, coreTally{edgeBytes: 8, msgBytes: 8, propBytes: 16}); err != nil {
			return nil, err
		}
		// Build the side instance before any update, as the server's was,
		// then bring it to the server's epoch untimed.
		if _, err := side.entry.RunContext(context.Background(), "pagerank", pageRankParams(cfg), nil); err != nil {
			return nil, err
		}
		for c := range half {
			if _, _, err := side.entry.ApplyEdges(edgeUpdates(batches[c])); err != nil {
				return nil, err
			}
		}
		svc.trace(tr)
		for c := half; c < cycles; c++ {
			if (c-half)%2 == 0 {
				// Untraced cycles interleaved with the traced ones give the
				// overhead baseline over the same epochs.
				t := cycle(c, "", "")
				plainLat = append(plainLat, ms(t.q1.Sub(t.q0)))
				upd = append(upd, ms(t.u1.Sub(t.u0)))
				if _, _, err := side.entry.ApplyEdges(edgeUpdates(batches[c])); err != nil {
					return nil, err
				}
				continue
			}
			upReq, upRoot, upHTTP := tr.id(), tr.id(), tr.id()
			qReq, qRoot, qHTTP := tr.id(), tr.id(), tr.id()
			t := cycle(c, spanRef(upReq, upHTTP), spanRef(qReq, qHTTP))
			tracedLat = append(tracedLat, ms(t.q1.Sub(t.q0)))
			tr.add("http", upReq, upHTTP, upRoot, t.u0, t.u1)
			tr.add("http", qReq, qHTTP, qRoot, t.q0, t.q1)
			applyMS, compacted, nnz, err := side.apply(tr, upReq, upRoot, batches[c])
			if err != nil {
				return nil, err
			}
			applies = append(applies, applyMS)
			if compacted {
				compacting = append(compacting, applyMS)
			}
			overlay = append(overlay, nnz)
			tr.add("update", upReq, upRoot, 0, t.u0, time.Now())
			if err := side.runPageRank(tr, qReq, qRoot, pageRankParams(cfg)); err != nil {
				return nil, err
			}
			tr.add("query", qReq, qRoot, 0, t.q0, time.Now())
		}
	}

	rep.set("live.update_p50_ms", median(upd))
	rep.set("live.update_p95_ms", quantile(upd, 0.95))
	after, err := svc.stats()
	if err != nil {
		return nil, err
	}
	disk, err := dirMB(dir)
	if err != nil {
		return nil, err
	}
	g := after.Graphs[graphName]
	var checkpoints int64
	if g.Persist != nil {
		checkpoints = g.Persist.Checkpoints
	}
	fmt.Fprintf(os.Stderr, "perfbench: live-pagerank %d cycles, %d checkpoints, data dir %.1f MB\n", cycles, checkpoints, disk)
	rep.set("live.disk_mb", disk)

	// Check the sampled answers against the benchmark's own replay of the
	// update stream, at the epoch each answer reports.
	replay := newEdgeSet(in.coo)
	applied := 0
	for _, c := range keep {
		a, err := decodeAnswer(kept[c])
		if err != nil || a.Epoch != uint64(c+1) {
			rep.count(false)
			continue
		}
		for ; applied <= c; applied++ {
			replay.apply(batches[applied])
		}
		rep.count(pageRankMatches(replay.pageRankReference(cfg.PRIters), a.Values))
	}
	if !o.Trace {
		return rep, nil
	}

	rep.set("trace.overhead_p50_ms", median(tracedLat)-median(plainLat))
	rep.set("server.response_kb", median(sizes))
	rep.set("server.cache.hit_ratio", ratio(float64(after.Cache.Hits), float64(after.Cache.Hits+after.Cache.Misses)))
	rep.set("server.workspace_allocs", float64(g.Algorithms["pagerank"].WorkspaceAllocs))
	rep.set("graph.compactions", float64(g.Algorithms["pagerank"].Store.Compactions))
	rep.set("snap.checkpoints", float64(checkpoints))
	// Generation 0 is written at upload, so the directory holds at most
	// checkpoints+1 generations.
	rep.set("snap.dir_mb_per_checkpoint", disk/float64(checkpoints+1))
	rep.set("graph.apply_p50_ms", median(applies))
	rep.set("graph.compacting_apply_p50_ms", median(compacting))
	rep.set("graph.overlay_nnz_mean", mean(overlay))
	setServerSpans(rep, tr)
	layered := median(tr.durations("core.RunContext"))
	rep.set("core.run_p50_ms", layered)
	rep.setCore(&side.tally, tr)

	for ; applied < cycles; applied++ {
		replay.apply(batches[applied])
	}
	static, err := staticPageRankMS(replay.pageRankInput(), cfg.PRIters, 10)
	if err != nil {
		return nil, err
	}
	rep.set("core.layered_overhead", ratio(layered, static))
	if err := probeWAL(tr, root, batches[:min(len(batches), 40)]); err != nil {
		return nil, err
	}
	rep.set("snap.wal_append_p50_ms", median(tr.durations("snap.WAL.Append")))
	snapMS, err := probeSnapWrite(tr, root, in)
	if err != nil {
		return nil, err
	}
	rep.set("snap.write_ms", snapMS)
	parse, build, err := probeParseBuild(in, specBuild("pagerank"))
	if err != nil {
		return nil, err
	}
	rep.set("graph.parse_s", parse)
	rep.set("graph.build_s", build)
	return rep, nil
}

func pageRankParams(cfg config) algorithms.Params {
	return algorithms.Params{Iterations: cfg.PRIters}
}

func edgeUpdates(batch []gen.EdgeOp) []algorithms.EdgeUpdate {
	out := make([]algorithms.EdgeUpdate, len(batch))
	for i, u := range batch {
		out[i] = algorithms.EdgeUpdate{Src: u.Src, Dst: u.Dst, Val: u.Weight, Del: u.Del}
	}
	return out
}

// apply times GraphEntry.ApplyEdges for batch as a span under parent and
// reports its time in ms, whether the pagerank store compacted during it,
// and the overlay size it left.
func (s *sideCore) apply(tr *tracer, req, parent int64, batch []gen.EdgeOp) (float64, bool, float64, error) {
	ups := edgeUpdates(batch)
	before := s.entry.Stats()["pagerank"].Store.Compactions
	start := time.Now()
	_, _, err := s.entry.ApplyEdges(ups)
	end := time.Now()
	if err != nil {
		return 0, false, 0, fmt.Errorf("side apply: %w", err)
	}
	tr.leaf("graph.ApplyEdges", req, parent, start, end)
	st := s.entry.Stats()["pagerank"].Store
	return ms(end.Sub(start)), st.Compactions > before, float64(st.OverlayNNZ), nil
}

// runPageRank times GraphEntry.RunContext and the JSON encoding of its
// result as spans under parent.
func (s *sideCore) runPageRank(tr *tracer, req, parent int64, p algorithms.Params) error {
	coreID := tr.id()
	start := time.Now()
	res, err := s.entry.RunContext(context.Background(), "pagerank", p, stepObserver(tr, req, coreID))
	end := time.Now()
	if err != nil {
		return fmt.Errorf("side pagerank run: %w", err)
	}
	tr.add("core.RunContext", req, coreID, parent, start, end)
	s.tally.add(res.Stats, end.Sub(start))
	e0 := time.Now()
	// Only the encoding time is wanted; finite ranks always encode.
	_, _ = json.Marshal(res)
	tr.leaf("server.encode", req, parent, e0, time.Now())
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cycleTimes is one live-pagerank cycle's record: the update and query
// round trips, and the query's outcome and duration_ms.
type cycleTimes struct {
	u0, u1, q0, q1 time.Time
	ok             bool
	serverMS       float64
	bytes          int
}
