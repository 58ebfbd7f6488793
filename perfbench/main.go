// Command perfbench is graphmat's end-to-end benchmark. One process runs one
// named workload against the real code: an in-process server.Server over
// loopback HTTP for the serving workloads, the algorithms package directly
// for the library workload. It checks a seeded sample of the answers against
// internal/reference and prints, as the last line of standard output, one
// JSON object with the run's metrics.
//
//	perfbench --workload point-bfs --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end set, measured with tracing
// off. With --trace 1 the run spends the first half of its time untraced and
// the second half traced, then times each layer's entry points on their
// own; the metrics are the per-layer set and the span file is written under
// --out. README.md maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"graphmat/internal/kernels"
)

// config fixes the input sizes and load levels. The production benchmark
// uses fullConfig; the smoke test shrinks everything.
type config struct {
	Scale, EdgeFactor int
	// BFSThink is the mean think time of each point-bfs user between a
	// reply and its next request.
	BFSThink time.Duration
	// CyclesPerSecond fixes live-pagerank's cycle count: a run of S
	// seconds does round(CyclesPerSecond*S) update+query cycles, whatever
	// the commit, so every run sees the same compaction and checkpoint
	// sequence.
	CyclesPerSecond float64
	// UpdateBatch is the number of edge updates per live-pagerank batch.
	UpdateBatch int
	// PRIters is the PageRank iteration count (tolerance 0 runs them all).
	PRIters int
	// Setups is how many times a run repeats its set-up; setup_s is their
	// median.
	Setups int
	// Samples is the number of timed answers per run checked against
	// internal/reference.
	Samples int
}

var fullConfig = config{
	Scale:           15,
	EdgeFactor:      16,
	BFSThink:        60 * time.Millisecond,
	CyclesPerSecond: 17,
	UpdateBatch:     500,
	PRIters:         10,
	Setups:          5,
	Samples:         4,
}

// options are one invocation's command-line settings.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *inputs, options) (*report, error){
	"point-bfs":       runPointBFS,
	"live-pagerank":   runLivePageRank,
	"static-pagerank": runStaticPageRank,
}

type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"heap_live_mb", "MB"},
}

// perLayer is reported by the traced run. A layer the workload's path does
// not touch reads 0 (README.md lists which workload moves which metric).
var perLayer = []metricDef{
	{"check.error_rate", "ratio"},
	{"live.update_p50_ms", "ms"},
	{"live.update_p95_ms", "ms"},
	{"live.disk_mb", "MB"},
	{"trace.overhead_p50_ms", "ms"},
	{"loadgen.late_p95_ms", "ms"},
	{"server.handler_p50_ms", "ms"},
	{"server.transport_p50_ms", "ms"},
	{"server.unattributed_p50_ms", "ms"},
	{"server.encode_p50_ms", "ms"},
	{"server.response_kb", "KB"},
	{"server.admission.wait_p50_ms", "ms"},
	{"server.admission.coalesced_share", "ratio"},
	{"server.admission.mean_width", "count"},
	{"server.cache.hit_ratio", "ratio"},
	{"server.workspace_allocs", "count"},
	{"core.run_p50_ms", "ms"},
	{"core.layered_overhead", "ratio"},
	{"core.push_superstep_p50_ms", "ms"},
	{"core.pull_superstep_p50_ms", "ms"},
	{"core.push_share", "ratio"},
	{"core.supersteps_per_run", "count"},
	{"core.edges_per_run", "count"},
	{"core.columns_probed_per_run", "count"},
	{"core.edges_per_s", "1/s"},
	{"core.computed_mb_per_run", "MB"},
	{"sched.tasks_per_run", "count"},
	{"sched.steals_per_run", "count"},
	{"sched.busy_util", "ratio"},
	{"graph.parse_s", "s"},
	{"graph.build_s", "s"},
	{"graph.apply_p50_ms", "ms"},
	{"graph.compacting_apply_p50_ms", "ms"},
	{"graph.compactions", "count"},
	{"graph.overlay_nnz_mean", "count"},
	{"snap.wal_append_p50_ms", "ms"},
	{"snap.write_ms", "ms"},
	{"snap.checkpoints", "count"},
	{"snap.dir_mb_per_checkpoint", "MB"},
	{"runtime.alloc_kb_per_request", "KB"},
	{"runtime.gc_cycles_per_s", "1/s"},
}

// report collects one run's measurements before they are filtered into the
// printed metric set.
type report struct {
	attempted, failed int
	values            map[string]float64
	tr                *tracer // nil on an untraced run
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// set records a metric; the name must be one of the declared metrics.
func (r *report) set(name string, v float64) {
	if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.Name == name }) &&
		!slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.Name == name }) {
		panic("perfbench: undeclared metric " + name)
	}
	r.values[name] = v
}

// count tallies one attempted operation and whether it failed.
func (r *report) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one invocation and shapes its result.
func run(cfg config, o options) (result, error) {
	drive, ok := workloads[o.Workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return result{}, err
	}
	in := makeInputs(cfg, o.Seed)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d nproc=%d gomaxprocs=%d go=%s kernels=%s vertices=%d edges=%d upload_bytes=%d\n",
		o.Workload, o.Seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernels.Active(),
		in.n, len(in.coo.Entries), len(in.upload))
	rep, err := drive(cfg, in, o)
	if err != nil {
		return result{}, err
	}
	if rep.attempted > 0 {
		rep.set("check.error_rate", float64(rep.failed)/float64(rep.attempted))
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
		path := filepath.Join(o.OutDir, fmt.Sprintf("spans-%s-seed%d.json", o.Workload, o.Seed))
		if err := rep.tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rep.tr.spans), path)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: rep.values[d.Name], Unit: d.Unit}
	}
	return res, nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload: point-bfs, live-pagerank or static-pagerank")
	flag.Uint64Var(&o.Seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.Seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.StringVar(&o.OutDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and scratch data")
	flag.Parse()
	o.Trace = trace == 1
	start := time.Now()
	res, err := run(fullConfig, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: done in %.1fs\n", time.Since(start).Seconds())
	fmt.Println(string(out))
}
