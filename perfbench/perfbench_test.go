package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinyConfig runs every workload at a size that finishes in a second or two.
var tinyConfig = config{
	Scale:           8,
	EdgeFactor:      8,
	BFSThink:        10 * time.Millisecond,
	CyclesPerSecond: 20,
	UpdateBatch:     20,
	PRIters:         5,
	Setups:          2,
	Samples:         2,
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, d := range spec.EndToEnd {
		endToEnd[d.Name] = d.Unit
	}
	for _, d := range spec.PerLayer {
		perLayer[d.Name] = d.Unit
	}
	return endToEnd, perLayer
}

func TestSmoke(t *testing.T) {
	e2e, layers := declared(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{Workload: name, Seed: 7, Seconds: 1, Trace: trace, OutDir: t.TempDir()}
			res, err := run(tinyConfig, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m, got, unit)
				}
			}
			if trace {
				checkSpans(t, filepath.Join(o.OutDir, "spans-"+name+"-seed7.json"))
			}
		}
	}
}

// checkSpans asserts every span with a parent lies inside it and shares its
// request id.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	children := 0
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %+v ends before it starts", path, s)
		}
		if s.Parent == 0 {
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %+v has no parent recorded", path, s)
			continue
		}
		if p.Req != s.Req || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("%s: span %+v does not lie inside its parent %+v", path, s, p)
		}
	}
	if children == 0 {
		t.Errorf("%s: no nested spans", path)
	}
}
