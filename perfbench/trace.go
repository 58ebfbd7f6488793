package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one, 0 for a root.
type span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps every span in memory until the run ends; times are
// monotonic nanoseconds since the tracer was made.
type tracer struct {
	base time.Time
	ids  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// id reserves a span ID, so children can name a parent recorded later.
func (t *tracer) id() int64 { return t.ids.Add(1) }

// add records a span whose ID was reserved with id.
func (t *tracer) add(name string, req, id, parent int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent,
		StartNS: int64(start.Sub(t.base)), EndNS: int64(end.Sub(t.base))})
	t.mu.Unlock()
}

// leaf records a span with no children.
func (t *tracer) leaf(name string, req, parent int64, start, end time.Time) {
	t.add(name, req, t.id(), parent, start, end)
}

// durations returns the durations in ms of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// byID indexes the spans named name by ID.
func (t *tracer) byID(name string) map[int64]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]span)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.ID] = s
		}
	}
	return out
}

// children returns the spans named name grouped by parent ID.
func (t *tracer) children(name string) map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanHeader carries "<req>/<parent span id>" from the benchmark's client to
// its handler wrapper, so the handler span joins the request's tree.
const spanHeader = "X-Perfbench-Span"

func spanRef(req, parent int64) string {
	return strconv.FormatInt(req, 10) + "/" + strconv.FormatInt(parent, 10)
}

// tracedHandler times the wrapped handler's ServeHTTP as a
// "server.handler" span under the request's client span.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	reqS, parentS, ok := strings.Cut(r.Header.Get(spanHeader), "/")
	if !ok {
		return
	}
	req, err1 := strconv.ParseInt(reqS, 10, 64)
	parent, err2 := strconv.ParseInt(parentS, 10, 64)
	if err1 == nil && err2 == nil {
		h.tr.leaf("server.handler", req, parent, start, end)
	}
}
