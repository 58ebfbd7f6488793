package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphmat"
	"graphmat/internal/graph"
)

// doRaw posts a raw (non-JSON) body.
func doRaw(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

type updateReply struct {
	Graph     string                          `json:"graph"`
	Epoch     uint64                          `json:"epoch"`
	Updates   int                             `json:"updates"`
	Instances map[string]graphmat.ApplyResult `json:"instances"`
}

// TestEdgesEndpointStaleCache is the stale-result hazard test: a cached
// PageRank result must NOT be served after an edge batch lands, and the
// post-batch result must reflect the new edges.
func TestEdgesEndpointStaleCache(t *testing.T) {
	srv, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	params := map[string]any{"iters": 10}
	first := runAlgo(t, ts, "g", "pagerank", params)
	if first.Cached {
		t.Fatal("first run reported cached")
	}
	again := runAlgo(t, ts, "g", "pagerank", params)
	if !again.Cached {
		t.Fatal("second identical run not served from cache")
	}

	// A batch that visibly changes PageRank: every vertex gains an edge to
	// vertex 0.
	n := int(srv.reg.graphs["g"].NumVertices())
	var batch strings.Builder
	for v := 1; v < n; v++ {
		fmt.Fprintf(&batch, "{\"src\":%d,\"dst\":0,\"weight\":1}\n", v)
	}
	code, body := doRaw(t, ts, http.MethodPost, "/graphs/g/edges", batch.String())
	if code != http.StatusOK {
		t.Fatalf("POST /edges = %d: %s", code, body)
	}
	var ur updateReply
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Epoch != 1 || ur.Updates != n-1 {
		t.Fatalf("update reply = %+v", ur)
	}
	if pr, ok := ur.Instances["pagerank"]; !ok || pr.Epoch != 1 {
		t.Fatalf("pagerank instance missing from fan-out: %+v", ur.Instances)
	}

	after := runAlgo(t, ts, "g", "pagerank", params)
	if after.Cached {
		t.Fatal("stale cached PageRank served after edge batch")
	}
	same := true
	for v := range first.Values {
		if first.Values[v] != after.Values[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("PageRank unchanged by a batch pointing every vertex at 0")
	}
	// The new epoch's result caches normally.
	cached := runAlgo(t, ts, "g", "pagerank", params)
	if !cached.Cached {
		t.Fatal("post-update result not cached under the new epoch")
	}
	for v := range after.Values {
		if cached.Values[v] != after.Values[v] {
			t.Fatal("cached post-update result differs from computed one")
		}
	}
}

// TestEdgesEndpointMatchesFreshUpload applies a batch and checks /run results
// equal a fresh upload of the equivalent edge set — the serving-layer
// differential, across a traversal (bfs, symmetrized) and a ranking
// (pagerank, directed) algorithm.
func TestEdgesEndpointMatchesFreshUpload(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "live")

	// Build instances BEFORE the update so the delta path is exercised.
	runAlgo(t, ts, "live", "bfs", map[string]any{"source": 0})
	runAlgo(t, ts, "live", "pagerank", map[string]any{"iters": 8})

	batch := "add 0 63 2\ndel 1 0\nadd 62 61 3\ndel 62 61\nadd 62 61 4\n"
	if code, body := doRaw(t, ts, http.MethodPost, "/graphs/live/edges?format=edgelist", batch); code != http.StatusOK {
		t.Fatalf("POST /edges = %d: %s", code, body)
	}

	// The equivalent fresh edge set, built client-side and uploaded.
	adj := testAdj()
	graphmat.NormalizeAdjacency(adj, 1)
	ups, err := graphmat.ParseUpdates([]byte(batch))
	if err != nil {
		t.Fatal(err)
	}
	adj, err = graphmat.ApplyToAdjacency(adj, ups)
	if err != nil {
		t.Fatal(err)
	}
	var mtx bytes.Buffer
	if err := graph.WriteMTX(&mtx, adj); err != nil {
		t.Fatal(err)
	}
	if code, body := doRaw(t, ts, http.MethodPost, "/graphs?name=fresh&format=mtx", mtx.String()); code != http.StatusCreated {
		t.Fatalf("upload fresh = %d: %s", code, body)
	}

	for _, algo := range []string{"bfs", "pagerank"} {
		params := map[string]any{"iters": 8}
		if algo == "bfs" {
			params = map[string]any{"source": 0}
		}
		live := runAlgo(t, ts, "live", algo, params)
		fresh := runAlgo(t, ts, "fresh", algo, params)
		if len(live.Values) != len(fresh.Values) {
			t.Fatalf("%s: value lengths differ", algo)
		}
		for v := range live.Values {
			if live.Values[v] != fresh.Values[v] {
				t.Fatalf("%s: value[%d] = %v live vs %v fresh", algo, v, live.Values[v], fresh.Values[v])
			}
		}
	}
}

// TestEdgesEndpointErrors covers the endpoint's failure modes.
func TestEdgesEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	if code, _ := doRaw(t, ts, http.MethodPost, "/graphs/nope/edges", "add 0 1\n"); code != http.StatusNotFound {
		t.Errorf("missing graph = %d", code)
	}
	if code, _ := doRaw(t, ts, http.MethodPost, "/graphs/g/edges", ""); code != http.StatusBadRequest {
		t.Errorf("empty batch = %d", code)
	}
	if code, _ := doRaw(t, ts, http.MethodPost, "/graphs/g/edges", "add 0\n"); code != http.StatusBadRequest {
		t.Errorf("malformed line = %d", code)
	}
	if code, _ := doRaw(t, ts, http.MethodPost, "/graphs/g/edges?format=bogus", "add 0 1\n"); code != http.StatusBadRequest {
		t.Errorf("bad format = %d", code)
	}
	// Vertex out of range: the whole batch must be rejected and the epoch
	// unmoved.
	if code, _ := doRaw(t, ts, http.MethodPost, "/graphs/g/edges", "add 0 999999\n"); code != http.StatusBadRequest {
		t.Errorf("out-of-range vertex = %d", code)
	}
	code, body := doRaw(t, ts, http.MethodGet, "/graphs/g", "")
	if code != http.StatusOK {
		t.Fatalf("GET /graphs/g = %d", code)
	}
	var info struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 0 {
		t.Errorf("failed batches advanced the epoch to %d", info.Epoch)
	}
}

// TestUpdateAwareWorkspacePools checks that edge updates do not invalidate
// an instance's workspace: the vertex count is fixed, so runs across epochs
// keep reusing the same scratch instead of re-allocating.
func TestUpdateAwareWorkspacePools(t *testing.T) {
	srv, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	for i := 0; i < 3; i++ {
		runAlgo(t, ts, "g", "bfs", map[string]any{"source": float64(i)})
		if code, body := doRaw(t, ts, http.MethodPost, "/graphs/g/edges",
			fmt.Sprintf("add %d %d\n", i, i+10)); code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, code, body)
		}
	}
	runAlgo(t, ts, "g", "bfs", map[string]any{"source": 5})

	st := srv.reg.graphs["g"].Stats()["bfs"]
	if st.Runs != 4 {
		t.Fatalf("runs = %d", st.Runs)
	}
	if st.WorkspaceAllocs != 1 {
		t.Errorf("workspace allocs = %d across epochs, want 1 (the workspace must survive updates)", st.WorkspaceAllocs)
	}
	if st.Store.Epoch != 3 || st.Store.Batches != 3 {
		t.Errorf("bfs store stats = %+v", st.Store)
	}

	// Epoch surfaces in /stats and /graphs.
	code, body := doRaw(t, ts, http.MethodGet, "/stats", "")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var stats struct {
		Graphs map[string]GraphStats `json:"graphs"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Graphs["g"].Epoch != 3 || stats.Graphs["g"].UpdatesApplied != 3 {
		t.Errorf("graph stats = %+v", stats.Graphs["g"])
	}
}

// TestLazyInstanceAfterUpdates builds an algorithm instance only AFTER
// batches landed: it must see the updated master, agreeing with an instance
// built before the batches.
func TestLazyInstanceAfterUpdates(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	// components built before updates, sssp and bfs only after.
	if r := runAlgo(t, ts, "g", "components", nil); len(r.Values) == 0 {
		t.Fatal("pre-update components run returned nothing")
	}
	if code, body := doRaw(t, ts, http.MethodPost, "/graphs/g/edges", "add 0 63\nadd 63 62\ndel 1 2\n"); code != http.StatusOK {
		t.Fatalf("POST /edges = %d: %s", code, body)
	}
	afterBuiltBefore := runAlgo(t, ts, "g", "components", nil)
	lazyBuilt := runAlgo(t, ts, "g", "sssp", map[string]any{"source": 0})
	if len(lazyBuilt.Values) == 0 {
		t.Fatal("lazily built instance returned nothing")
	}

	// The built-before (delta-updated) instance must agree with a lazily
	// built symmetrized algorithm that cloned the post-update master: bfs
	// from root 0 reaches exactly the vertices components labels with the
	// root's label.
	bfs := runAlgo(t, ts, "g", "bfs", map[string]any{"source": 0})
	root := afterBuiltBefore.Values[0]
	for v := range bfs.Values {
		reached := bfs.Values[v] != float64(^uint32(0))
		sameComp := afterBuiltBefore.Values[v] == root
		if reached != sameComp {
			t.Fatalf("vertex %d: bfs reached=%v but component match=%v (built-before vs lazily-built masters diverge)", v, reached, sameComp)
		}
	}
}
