package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"graphmat"
	"graphmat/algorithms"
)

// splitNDJSON splits a response body into its non-empty NDJSON lines.
func splitNDJSON(t *testing.T, body []byte) [][]byte {
	t.Helper()
	var lines [][]byte
	for _, ln := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(ln)) > 0 {
			lines = append(lines, ln)
		}
	}
	return lines
}

// Tests of the v1 API surface: versioned routing with deprecation aliases,
// the unified run endpoint's scalar/batch forms, and the admission batcher's
// coalescing differential — coalesced responses must be payload-identical
// (values, epoch) to uncoalesced ones.

// TestV1RoutingAndDeprecation checks that every endpoint answers under /v1
// without deprecation markers and under its legacy alias with them.
func TestV1RoutingAndDeprecation(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	for _, path := range []string{"/healthz", "/algorithms", "/graphs", "/graphs/g", "/stats"} {
		legacy, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		legacy.Body.Close()
		if legacy.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, legacy.StatusCode)
		}
		if legacy.Header.Get("Deprecation") != "true" {
			t.Fatalf("GET %s: missing Deprecation header", path)
		}
		if want := `</v1` + path + `>; rel="successor-version"`; legacy.Header.Get("Link") != want {
			t.Fatalf("GET %s: Link = %q, want %q", path, legacy.Header.Get("Link"), want)
		}
		v1, err := http.Get(ts.URL + "/v1" + path)
		if err != nil {
			t.Fatal(err)
		}
		v1.Body.Close()
		if v1.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1%s = %d", path, v1.StatusCode)
		}
		if v1.Header.Get("Deprecation") != "" {
			t.Fatalf("GET /v1%s: v1 route must not be deprecated", path)
		}
	}

	// The legacy run endpoint is aliased too, bit-identical either way.
	legacy := runAlgo(t, ts, "g", "bfs", map[string]any{"source": 3})
	code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run/bfs", map[string]any{"source": 3})
	if code != http.StatusOK {
		t.Fatalf("v1 aliased run = %d: %s", code, body)
	}
	var v1run runReply
	if err := json.Unmarshal(body, &v1run); err != nil {
		t.Fatal(err)
	}
	for v := range legacy.Values {
		if legacy.Values[v] != v1run.Values[v] {
			t.Fatalf("vertex %d: legacy %v vs v1 %v", v, legacy.Values[v], v1run.Values[v])
		}
	}
}

// TestOpenAPIDocument sanity-checks GET /v1/openapi.json: well-formed, all
// v1 paths present, and the run schema's algorithm enum tracks the registry.
func TestOpenAPIDocument(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := do(t, ts, http.MethodGet, "/v1/openapi.json", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/openapi.json = %d", code)
	}
	var doc struct {
		OpenAPI string         `json:"openapi"`
		Paths   map[string]any `json:"paths"`
		Comp    struct {
			Schemas struct {
				RunRequest struct {
					Properties struct {
						Algo struct {
							Enum []string `json:"enum"`
						} `json:"algo"`
					} `json:"properties"`
				} `json:"RunRequest"`
			} `json:"schemas"`
		} `json:"components"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding openapi document: %v", err)
	}
	if doc.OpenAPI == "" {
		t.Fatal("missing openapi version field")
	}
	for _, p := range []string{
		"/v1/healthz", "/v1/stats", "/v1/algorithms", "/v1/graphs",
		"/v1/graphs/{name}", "/v1/graphs/{name}/edges",
		"/v1/graphs/{name}/run", "/v1/graphs/{name}/run/{algo}", "/v1/openapi.json",
	} {
		if _, ok := doc.Paths[p]; !ok {
			t.Fatalf("path %s missing from openapi document (have %d paths)", p, len(doc.Paths))
		}
	}
	names := algorithms.Names()
	if len(doc.Comp.Schemas.RunRequest.Properties.Algo.Enum) != len(names) {
		t.Fatalf("algo enum = %v, registry has %v", doc.Comp.Schemas.RunRequest.Properties.Algo.Enum, names)
	}
}

type batchReply struct {
	Graph     string         `json:"graph"`
	Algorithm string         `json:"algorithm"`
	Sources   []uint32       `json:"sources"`
	Values    [][]float64    `json:"values"`
	Stats     graphmat.Stats `json:"stats"`
	Epoch     uint64         `json:"epoch"`
}

// TestRunV1Unified exercises the unified endpoint's forms: scalar params,
// multi-source batch (bit-identical per source to direct scalar runs), and
// the error paths.
func TestRunV1Unified(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	// Scalar form: params in the body document, no sources.
	code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run",
		map[string]any{"algo": "bfs", "params": map[string]any{"source": 3}})
	if code != http.StatusOK {
		t.Fatalf("scalar v1 run = %d: %s", code, body)
	}
	var scalar runReply
	if err := json.Unmarshal(body, &scalar); err != nil {
		t.Fatal(err)
	}
	expectBitIdentical(t, scalar, direct(t, "bfs", algorithms.Params{Source: 3}))

	// Multi-source form: every algorithm that declares Batchable, against
	// per-source direct oracles.
	sources := []uint32{0, 3, 7, 11, 19}
	for _, algo := range []string{"bfs", "sssp", "ppr", "reachability", "widest"} {
		req := map[string]any{"algo": algo, "sources": sources}
		if algo == "ppr" {
			req["params"] = map[string]any{"iters": 10}
		}
		code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run", req)
		if code != http.StatusOK {
			t.Fatalf("%s batch run = %d: %s", algo, code, body)
		}
		var batch batchReply
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatal(err)
		}
		if len(batch.Values) != len(sources) {
			t.Fatalf("%s: %d series for %d sources", algo, len(batch.Values), len(sources))
		}
		for i, src := range sources {
			want := direct(t, algo, algorithms.Params{Source: src, Iterations: 10})
			for v := range want.Values {
				if batch.Values[i][v] != want.Values[v] {
					t.Fatalf("%s source %d vertex %d: got %v, want %v", algo, src, v, batch.Values[i][v], want.Values[v])
				}
			}
		}
	}

	// Error paths.
	cases := []struct {
		name string
		req  map[string]any
		want int
	}{
		{"unknown algorithm", map[string]any{"algo": "nope"}, http.StatusNotFound},
		{"non-batchable with sources", map[string]any{"algo": "pagerank", "sources": []int{1, 2}}, http.StatusBadRequest},
		{"bad mode", map[string]any{"algo": "bfs", "mode": "sideways", "sources": []int{1}}, http.StatusBadRequest},
		{"bad param", map[string]any{"algo": "bfs", "params": map[string]any{"bogus": 1}}, http.StatusBadRequest},
		{"negative timeout", map[string]any{"algo": "bfs", "timeout_ms": -5}, http.StatusBadRequest},
		{"source out of range", map[string]any{"algo": "bfs", "sources": []int{1 << 20}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run", tc.req)
		if code != tc.want {
			t.Fatalf("%s: code %d (%s), want %d", tc.name, code, body, tc.want)
		}
	}
}

// TestRunV1Coalescing is the serving half of the batching differential:
// concurrent single-source v1 requests must coalesce into shared block runs
// AND return exactly the payload (values, epoch) an uncoalesced server
// produces. The first request's run is held in flight while the rest of the
// burst queues behind it, so the burst lands in one batch on any machine;
// the uncoalesced oracle is a second server sent the same requests one at a
// time.
func TestRunV1Coalescing(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	addTestGraph(t, ts, "g")
	hold := holdFirstRun(srv.batcher)

	solo := New(Config{}) // sequential requests: every run is width 1
	soloTS := httptest.NewServer(solo)
	t.Cleanup(soloTS.Close)
	addTestGraph(t, soloTS, "g")

	sources := []uint32{0, 3, 6, 9, 12, 15, 18, 21}
	type v1Reply struct {
		runReply
		Coalesced bool   `json:"coalesced"`
		Epoch     uint64 `json:"epoch"`
	}
	replies := make([]v1Reply, len(sources))
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run",
				map[string]any{"algo": "bfs", "sources": []uint32{sources[i]}})
			if code != http.StatusOK {
				t.Errorf("source %d: code %d: %s", sources[i], code, body)
				return
			}
			if err := json.Unmarshal(body, &replies[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	send(0)
	<-hold.started
	for i := 1; i < len(sources); i++ {
		send(i)
	}
	waitSubmitted(t, srv.batcher, int64(len(sources)))
	close(hold.release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	anyCoalesced := false
	for i, src := range sources {
		// Uncoalesced oracle: same request against the idle second server;
		// payloads must match on values and epoch. (Stats legitimately
		// differ — a coalesced run's stats aggregate the whole batch.)
		code, body := do(t, soloTS, http.MethodPost, "/v1/graphs/g/run",
			map[string]any{"algo": "bfs", "sources": []uint32{src}})
		if code != http.StatusOK {
			t.Fatalf("solo source %d: code %d: %s", src, code, body)
		}
		var want v1Reply
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if want.Coalesced {
			t.Fatalf("source %d: a lone request reported coalescing", src)
		}
		if len(replies[i].Values) != len(want.Values) {
			t.Fatalf("source %d: %d values vs %d", src, len(replies[i].Values), len(want.Values))
		}
		for v := range want.Values {
			if replies[i].Values[v] != want.Values[v] {
				t.Fatalf("source %d vertex %d: coalesced %v != uncoalesced %v", src, v, replies[i].Values[v], want.Values[v])
			}
		}
		if replies[i].Epoch != want.Epoch {
			t.Fatalf("source %d: epoch %d vs %d", src, replies[i].Epoch, want.Epoch)
		}
		anyCoalesced = anyCoalesced || replies[i].Coalesced
	}
	if !anyCoalesced {
		t.Fatal("no request reported coalescing despite the concurrent burst")
	}

	// The admission layer's own accounting: 8 admitted, fewer engine runs.
	bs := srv.batcher.stats()
	if bs.Submitted != int64(len(sources)) {
		t.Fatalf("batcher submitted = %d, want %d", bs.Submitted, len(sources))
	}
	if bs.Batches >= int64(len(sources)) {
		t.Fatalf("batcher ran %d batches for %d requests: nothing coalesced", bs.Batches, len(sources))
	}
	if bs.Coalesced == 0 {
		t.Fatal("batcher recorded no coalesced requests")
	}

	// And the per-instance tallies surface the batching.
	g, err := srv.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()["bfs"]
	if st.BatchRuns == 0 || st.BatchedSources != int64(len(sources)) {
		t.Fatalf("bfs batch tallies = %+v, want %d sources over fewer runs", st, len(sources))
	}
}

// TestRunV1SingleSourceWidthOne pins the width-1 path: a sources=[v]
// request that runs alone, and one queued alone behind a run in flight,
// both answer in the scalar shape, bit-identical to the direct run, and
// both run on the scalar engine through the instance's one reused
// workspace rather than as block runs.
func TestRunV1SingleSourceWidthOne(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	addTestGraph(t, ts, "g")
	hold := holdFirstRun(srv.batcher)

	type v1Reply struct {
		runReply
		Coalesced bool `json:"coalesced"`
	}
	replies := make([]v1Reply, 2)
	sources := []int{5, 9}
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run",
				map[string]any{"algo": "sssp", "sources": []int{sources[i]}})
			if code != http.StatusOK {
				t.Errorf("run = %d: %s", code, body)
				return
			}
			if err := json.Unmarshal(body, &replies[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	send(0)
	<-hold.started
	send(1)
	waitSubmitted(t, srv.batcher, 2)
	close(hold.release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, reply := range replies {
		if reply.Coalesced {
			t.Errorf("source %d: a width-1 run reported coalescing", sources[i])
		}
		expectBitIdentical(t, reply.runReply, direct(t, "sssp", algorithms.Params{Source: uint32(sources[i])}))
	}
	if widths := hold.dispatched(); len(widths) != 2 || widths[0] != 1 || widths[1] != 1 {
		t.Fatalf("dispatched widths %v, want [1 1]", widths)
	}
	g, err := srv.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()["sssp"]
	if st.WorkspaceAllocs != 1 || st.BatchRuns != 2 || st.BatchedSources != 2 {
		t.Fatalf("sssp tallies = %+v, want 2 width-1 admission batches on 1 reused workspace", st)
	}
}

// TestRunV1BatchStream checks the streaming batch form: progress lines then
// a final batch-shaped line, values bit-identical per source.
func TestRunV1BatchStream(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run",
		map[string]any{"algo": "bfs", "sources": []int{2, 4}, "stream": true})
	if code != http.StatusOK {
		t.Fatalf("stream run = %d: %s", code, body)
	}
	lines := splitNDJSON(t, body)
	if len(lines) < 2 {
		t.Fatalf("expected progress + final lines, got %d", len(lines))
	}
	var final batchReply
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		t.Fatalf("decoding final line: %v", err)
	}
	if len(final.Values) != 2 {
		t.Fatalf("final line has %d series, want 2", len(final.Values))
	}
	for i, src := range []uint32{2, 4} {
		want := direct(t, "bfs", algorithms.Params{Source: src})
		for v := range want.Values {
			if final.Values[i][v] != want.Values[v] {
				t.Fatalf("source %d vertex %d: got %v, want %v", src, v, final.Values[i][v], want.Values[v])
			}
		}
	}
}
