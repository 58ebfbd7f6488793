package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
)

// stdEncode is the reference encoding the reply encoder must reproduce.
func stdEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// sameEncoding asserts that v's appended encoding equals encoding/json's,
// or that both fail.
func sameEncoding(t *testing.T, v replyAppender) {
	t.Helper()
	got, gotErr := v.appendJSON(nil)
	want, wantErr := stdEncode(v)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("encoder error %v, encoding/json error %v", gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("encodings differ at byte %d:\n got %.120q\nwant %.120q", i, got[i:], want[i:])
	}
}

// testStats has every field set, so a field the encoder misses or misorders
// shows as a byte difference.
func testStats() graphmat.Stats {
	return graphmat.Stats{
		Iterations: 7, MessagesSent: 11, EdgesProcessed: 13, Applies: 17, ActiveSum: 19,
		ColumnsProbed: 23, PushSupersteps: 3, PullSupersteps: 4, Reason: graphmat.Converged,
		Sched: graphmat.SchedStats{Workers: 2, Tasks: 29, Steals: 31, BusyNS: 37},
	}
}

// TestRunReplyFloatForms covers the float formatting rules one by one:
// integers inside and outside the exact range, the 'e' cutoffs at 1e-6 and
// 1e21, exponent trimming, subnormals and the sign of zero.
func TestRunReplyFloatForms(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 3, 4294967295, 0.1, 0.15, 1.0 / 3, -2.5,
		1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 1e15, 1e20, 123456789012345680,
		1e21, 1e22, 9.999999999999999e20, 1e-6, 9.99e-7, 1e-7, 1e-9, 1.5e-10, 1e-100,
		5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		float64(math.MaxFloat32), float64(float32(0.1)), 1e300, -1e-300,
	}
	sameEncoding(t, &runResponse{Graph: "g", Algorithm: "pagerank", DurationMS: 1.25, Result: algorithms.Result{Values: values, Stats: testStats()}})
	for _, d := range values {
		sameEncoding(t, &runResponse{Graph: "g", Algorithm: "bfs", DurationMS: d, Result: algorithms.Result{Stats: testStats()}})
	}
}

// TestRunReplyShapes covers every optional part of both reply shapes.
func TestRunReplyShapes(t *testing.T) {
	count := int64(-42)
	for _, v := range []replyAppender{
		&runResponse{},
		&runResponse{Graph: "web", Algorithm: "bfs", Cached: true, Result: algorithms.Result{Values: []float64{}}},
		&runResponse{Graph: "web", Algorithm: "bfs", Coalesced: true, DurationMS: 0.5, Result: algorithms.Result{Values: []float64{1, 2}, Epoch: 9}},
		&runResponse{Graph: "web", Algorithm: "hits", Result: algorithms.Result{
			Series: map[string][]float64{"hub": {0.5, 0.25}, "auth": {1, 0}, "<&>": nil, "empty": {}},
			Stats:  testStats(),
		}},
		&runResponse{Graph: "web", Algorithm: "triangles", Result: algorithms.Result{Count: &count, Stats: testStats()}},
		&runResponse{Graph: "web", Algorithm: "x", Result: algorithms.Result{Stats: graphmat.Stats{Reason: graphmat.StopReason(99)}}},
		&batchRunResponse{},
		&batchRunResponse{Graph: "web", Algorithm: "sssp", DurationMS: 2, BatchResult: algorithms.BatchResult{
			Sources: []uint32{0, 4294967295}, Values: [][]float64{{0, 1.5}, nil, {}}, Stats: testStats(), Epoch: 3,
		}},
		&batchRunResponse{BatchResult: algorithms.BatchResult{Sources: []uint32{}, Values: [][]float64{}}},
	} {
		sameEncoding(t, v)
	}
}

// TestRunReplyPerfbenchSize checks the encoder on real replies the size of
// the benchmark's: BFS and PageRank on an RMAT scale-15, edge-factor-16
// graph, single-source and as a block.
func TestRunReplyPerfbenchSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1M-edge graph")
	}
	reg := NewRegistry(0, 0, "")
	entry, err := reg.AddCOO("perf", "rmat", gen.RMAT(gen.RMATOptions{Scale: 15, EdgeFactor: 16, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := entry.Run("bfs", algorithms.Params{Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := entry.Run("pagerank", algorithms.Params{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	block, err := entry.RunBatch(context.Background(), "bfs", algorithms.Params{Sources: []uint32{1, 2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameEncoding(t, &runResponse{Graph: "perf", Algorithm: "bfs", DurationMS: 12.345, Result: bfs})
	sameEncoding(t, &runResponse{Graph: "perf", Algorithm: "pagerank", DurationMS: 98.7, Result: pr})
	sameEncoding(t, &batchRunResponse{Graph: "perf", Algorithm: "bfs", DurationMS: 20.5, BatchResult: block})
}

// TestRunReplyNonFinite: a reply holding NaN or ±Inf is refused before any
// byte is written — a 500 with a JSON error, never a 200 with an empty or
// truncated body.
func TestRunReplyNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := &runResponse{Graph: "g", Algorithm: "sssp", Result: algorithms.Result{Values: []float64{0, 1, bad}}}
		sameEncoding(t, v)
		rec := httptest.NewRecorder()
		writeReply(rec, v)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("value %v: status %d, want 500", bad, rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Fatalf("value %v: body %q is not a JSON error (%v)", bad, rec.Body.Bytes(), err)
		}
	}
	rec := httptest.NewRecorder()
	v := &batchRunResponse{Graph: "g", Algorithm: "sssp", DurationMS: 1, BatchResult: algorithms.BatchResult{Sources: []uint32{0}, Values: [][]float64{{math.Inf(-1)}}}}
	writeReply(rec, v)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("batch reply: status %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	writeReply(rec, &runResponse{Graph: "g", Algorithm: "bfs", Result: algorithms.Result{Values: []float64{1, 2}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("finite reply: status %d", rec.Code)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}

// floatsFromBits reads arbitrary float64 bit patterns, eight bytes each.
func floatsFromBits(b []byte) []float64 {
	out := make([]float64, 0, len(b)/8)
	for ; len(b) >= 8; b = b[8:] {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return out
}

// FuzzRunReplyEncoding holds the reply encoder to encoding/json: for
// arbitrary float bit patterns (NaN and ±Inf included), names carrying
// HTML-sensitive, non-ASCII or invalid UTF-8 bytes, and every optional
// field, both reply shapes encode to the same bytes, or both fail.
func FuzzRunReplyEncoding(f *testing.F) {
	le := func(fs ...float64) []byte {
		b := make([]byte, 8*len(fs))
		for i, x := range fs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(le(0, 1, 2, 4294967295), "web", "bfs", false, false, int64(0), "", le(), uint64(0))
	f.Add(le(0.15, 1e-7, 1e21, math.Copysign(0, -1)), "<g&h>", "pagerank", true, true, int64(-3), "hub", le(0.5), uint64(7))
	f.Add(le(math.NaN()), "\xff\xfe", "sssp", false, true, int64(1<<40), "\u2028", le(math.Inf(1)), uint64(1))
	f.Add(le(5e-324, math.MaxFloat64), "naïve\u2029\x00\x1f\"\\", "tri\tangles", true, false, int64(0), "a<b", le(1e-300, 1e300), uint64(1<<63))
	f.Fuzz(func(t *testing.T, valueBits []byte, graph, algo string, coalesced, hasCount bool, count int64, seriesKey string, seriesBits []byte, durationBits uint64) {
		values := floatsFromBits(valueBits)
		duration := math.Float64frombits(durationBits)
		stats := testStats()
		stats.Iterations = int(count)
		stats.Sched.BusyNS = count
		res := algorithms.Result{Values: values, Stats: stats, Epoch: durationBits}
		if seriesKey != "" {
			res.Series = map[string][]float64{seriesKey: floatsFromBits(seriesBits), "hub": values}
		}
		if hasCount {
			res.Count = &count
		}
		sameEncoding(t, &runResponse{Graph: graph, Algorithm: algo, Cached: !coalesced, Coalesced: coalesced, DurationMS: duration, Result: res})

		// The block shape: the values as the first column, the series
		// values as the second, a source per column.
		sources := make([]uint32, 0, 2)
		for _, b := range []byte(algo) {
			sources = append(sources, uint32(b)*16777619)
		}
		sameEncoding(t, &batchRunResponse{Graph: graph, Algorithm: algo, DurationMS: duration, BatchResult: algorithms.BatchResult{
			Sources: sources, Values: [][]float64{values, floatsFromBits(seriesBits)}, Stats: stats, Epoch: uint64(count),
		}})
	})
}
