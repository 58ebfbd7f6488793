package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/server"
)

const runPath = "/v1/graphs/" + graphName + "/run"

// bfsOutcome is one request's record.
type bfsOutcome struct {
	due       time.Duration // since the phase started
	src       uint32
	ok        bool
	latencyMS float64 // from the due time to the last response byte
	lateMS    float64 // how late the user woke from its think time
	serverMS  float64 // the response's duration_ms
	bytes     int
	body      []byte // kept for the output check on sampled requests
	req       int64  // traced phase only: the request's span id
}

// sideCore is a volatile registry holding the same graph as the server, so
// the traced run can time GraphEntry calls, and the JSON encoding of their
// results, from outside the server.
type sideCore struct {
	entry *server.GraphEntry
	tally coreTally
}

func newSideCore(in *inputs, tally coreTally) (*sideCore, error) {
	reg := server.NewRegistry(0, 0, "")
	entry, err := reg.AddCOO(graphName, "perfbench", in.coo.Clone())
	if err != nil {
		return nil, err
	}
	return &sideCore{entry: entry, tally: tally}, nil
}

// stepObserver records each superstep as a span under the core span,
// named by the kernel mode it ran.
func stepObserver(tr *tracer, req, parent int64) algorithms.Observer {
	return func(info graphmat.IterationInfo) error {
		end := time.Now()
		name := "core.superstep.pull"
		if info.Mode == graphmat.Push {
			name = "core.superstep.push"
		}
		tr.leaf(name, req, parent, end.Add(-info.Elapsed), end)
		return nil
	}
}

// runPointBFS drives maxConns independent users, each on its own
// connection, sending single-source BFS requests in a closed loop with
// seeded exponential think times.
func runPointBFS(cfg config, in *inputs, o options) (*report, error) {
	rep := newReport()
	sym := symmetric(in.coo)
	check := func(src uint32, body []byte) {
		a, err := decodeAnswer(body)
		rep.count(err == nil && bfsMatches(in.n, sym, src, a.Values))
	}

	var svc *service
	var setups []float64
	for i := range cfg.Setups {
		if svc != nil {
			svc.close()
		}
		src := in.sources[in.rng(uint64(100+i)).IntN(len(in.sources))]
		start := time.Now()
		s, err := startService(server.Config{}, in)
		if err != nil {
			return nil, err
		}
		svc = s
		var buf bytes.Buffer
		status, err := svc.post(svc.url(false, runPath), bfsRequest(src), "", &buf)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil || status != http.StatusOK {
			rep.count(false)
			continue
		}
		check(src, buf.Bytes())
	}
	defer svc.close()
	rep.set("setup_s", median(setups))

	seconds := o.Seconds
	if o.Trace {
		seconds /= 2
	}
	d := time.Duration(seconds * float64(time.Second))
	before, err := svc.stats()
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	outs, wall := usersLoop(svc, in, cfg, d, 1, nil)
	rt1 := readRuntime()
	rep.set("heap_live_mb", liveHeapMB())
	after, err := svc.stats()
	if err != nil {
		return nil, err
	}
	lat := tallyOutcomes(rep, outs)
	rep.set("latency_p50_ms", windowedQuantile(lat, 0.5))
	rep.set("latency_p95_ms", windowedQuantile(lat, 0.95))
	rep.set("throughput_rps", float64(countOK(outs))/wall.Seconds())
	fmt.Fprintf(os.Stderr, "perfbench: point-bfs %d requests in %.1fs\n", len(outs), wall.Seconds())
	for _, oc := range outs {
		if oc.body != nil {
			check(oc.src, oc.body)
		}
	}
	if !o.Trace {
		return rep, nil
	}

	// Untraced-phase layer figures.
	var late, unattributed, sizes []float64
	for _, oc := range outs {
		if oc.ok {
			late = append(late, oc.lateMS)
			unattributed = append(unattributed, oc.latencyMS-oc.serverMS)
			sizes = append(sizes, float64(oc.bytes)/1024)
		}
	}
	rep.set("loadgen.late_p95_ms", quantile(late, 0.95))
	rep.set("server.unattributed_p50_ms", median(unattributed))
	rep.set("server.response_kb", median(sizes))
	rep.setRuntime(rt0, rt1, len(outs))
	sub := after.Batcher.Submitted - before.Batcher.Submitted
	rep.set("server.admission.coalesced_share", ratio(float64(after.Batcher.Coalesced-before.Batcher.Coalesced), float64(sub)))
	rep.set("server.admission.mean_width", ratio(float64(sub), float64(after.Batcher.Batches-before.Batcher.Batches)))
	rep.set("server.cache.hit_ratio", ratio(float64(after.Cache.Hits), float64(after.Cache.Hits+after.Cache.Misses)))
	rep.set("server.workspace_allocs", float64(after.Graphs[graphName].Algorithms["bfs"].WorkspaceAllocs))

	// Traced phase: the same users through the traced listener. Then, with
	// the server idle, each request's source is replayed through the side
	// GraphEntry.RunBatch and the encoding of its result, as spans of that
	// request.
	tr := newTracer()
	rep.tr = tr
	side, err := newSideCore(in, coreTally{edgeBytes: 8, msgBytes: 4, propBytes: 4})
	if err != nil {
		return nil, err
	}
	if _, err := side.entry.RunBatch(context.Background(), "bfs", algorithms.Params{Source: in.sources[0]}, nil); err != nil {
		return nil, err
	}
	svc.trace(tr)
	outs2, _ := usersLoop(svc, in, cfg, d, 3, tr)
	lat2 := tallyOutcomes(rep, outs2)
	rep.set("trace.overhead_p50_ms", median(lat2)-median(lat))
	var admission []float64
	for _, oc := range outs2 {
		if oc.body != nil {
			check(oc.src, oc.body)
		}
		if oc.ok {
			coreMS, err := side.runBFS(tr, oc.req, oc.src)
			if err != nil {
				return nil, err
			}
			admission = append(admission, oc.serverMS-coreMS)
		}
	}
	rep.set("server.admission.wait_p50_ms", median(admission))
	setServerSpans(rep, tr)
	rep.set("core.run_p50_ms", median(tr.durations("core.RunBatch")))
	rep.setCore(&side.tally, tr)

	parse, build, err := probeParseBuild(in, specBuild("bfs"))
	if err != nil {
		return nil, err
	}
	rep.set("graph.parse_s", parse)
	rep.set("graph.build_s", build)
	return rep, nil
}

// tallyOutcomes counts every request in rep and returns the latencies of
// all of them: a failed request keeps the time it took to fail.
func tallyOutcomes(rep *report, outs []bfsOutcome) []float64 {
	lat := make([]float64, len(outs))
	for i, oc := range outs {
		rep.count(oc.ok)
		lat[i] = oc.latencyMS
	}
	return lat
}

func countOK(outs []bfsOutcome) int {
	n := 0
	for _, oc := range outs {
		if oc.ok {
			n++
		}
	}
	return n
}

// usersLoop runs maxConns users for d and returns every request's outcome,
// in due order, and the phase's wall time. Each user draws its think times
// (exponential, mean cfg.BFSThink) and sources from its own seeded stream,
// so a user's requests are the same whatever the timing; a request is due
// when its think time after the previous reply ends, and its latency runs
// from then.
// A user keeps the bodies of its first cfg.Samples requests for the output
// check. With tr set the requests go to the traced listener, each under a
// root span from its due time.
func usersLoop(svc *service, in *inputs, cfg config, d time.Duration, stream uint64, tr *tracer) ([]bfsOutcome, time.Duration) {
	perUser := make([][]bfsOutcome, maxConns)
	start := time.Now()
	var wg sync.WaitGroup
	for u := range maxConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := in.rng(stream*16 + uint64(u))
			var buf bytes.Buffer
			due := start
			for {
				due = due.Add(time.Duration(r.ExpFloat64() * float64(cfg.BFSThink)))
				src := in.sources[r.IntN(len(in.sources))]
				if due.Sub(start) >= d {
					return
				}
				time.Sleep(time.Until(due))
				oc := bfsOutcome{due: due.Sub(start), src: src, lateMS: ms(time.Since(due))}
				var root, httpID int64
				ref := ""
				if tr != nil {
					oc.req, root, httpID = tr.id(), tr.id(), tr.id()
					ref = spanRef(oc.req, httpID)
				}
				t0 := time.Now()
				status, err := svc.post(svc.url(tr != nil, runPath), bfsRequest(src), ref, &buf)
				t1 := time.Now()
				oc.latencyMS = ms(t1.Sub(due))
				oc.bytes = buf.Len()
				oc.serverMS, oc.ok = durationMS(buf.Bytes())
				oc.ok = oc.ok && err == nil && status == http.StatusOK
				if len(perUser[u]) < cfg.Samples {
					oc.body = bytes.Clone(buf.Bytes())
				}
				if tr != nil {
					tr.add("http", oc.req, httpID, root, t0, t1)
					tr.add("request", oc.req, root, 0, due, t1)
				}
				perUser[u] = append(perUser[u], oc)
				due = t1
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	outs := slices.Concat(perUser...)
	slices.SortStableFunc(outs, func(a, b bfsOutcome) int { return cmp.Compare(a.due, b.due) })
	return outs, wall
}

// runBFS times GraphEntry.RunBatch for src and the JSON encoding of its
// result as root spans of request req, and returns the run's time in ms.
func (s *sideCore) runBFS(tr *tracer, req int64, src uint32) (float64, error) {
	coreID := tr.id()
	c0 := time.Now()
	res, err := s.entry.RunBatch(context.Background(), "bfs", algorithms.Params{Source: src}, stepObserver(tr, req, coreID))
	c1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("side bfs run: %w", err)
	}
	tr.add("core.RunBatch", req, coreID, 0, c0, c1)
	s.tally.add(res.Stats, c1.Sub(c0))
	e0 := time.Now()
	// Only the encoding time is wanted; hop counts always encode.
	_, _ = json.Marshal(algorithms.Result{Values: res.Values[0], Stats: res.Stats, Epoch: res.Epoch})
	tr.leaf("server.encode", req, 0, e0, time.Now())
	return ms(c1.Sub(c0)), nil
}

// setServerSpans records the handler and transport split from the spans of
// the traced phase: transport is each client round trip minus the handler
// time inside it.
func setServerSpans(rep *report, tr *tracer) {
	rep.set("server.handler_p50_ms", median(tr.durations("server.handler")))
	rep.set("server.encode_p50_ms", median(tr.durations("server.encode")))
	handlers := tr.children("server.handler")
	var transport []float64
	for id, h := range tr.byID("http") {
		if hs := handlers[id]; len(hs) == 1 {
			transport = append(transport, h.ms()-hs[0].ms())
		}
	}
	rep.set("server.transport_p50_ms", median(transport))
}
