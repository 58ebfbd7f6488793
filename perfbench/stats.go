package main

import (
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"graphmat"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windows is how many equal parts of a run the end-to-end latency
// percentiles are taken over. The reported figure is the median of the
// parts, so a disturbance of the shared host covering under half of a run
// does not move it, while a change to the code moves every part.
const windows = 6

// windowedQuantile splits xs, in the order they were measured, into
// windows equal parts and returns the median of the parts' q-quantiles.
func windowedQuantile(xs []float64, q float64) float64 {
	if len(xs) < windows {
		return quantile(xs, q)
	}
	qs := make([]float64, windows)
	for w := range qs {
		qs[w] = quantile(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], q)
	}
	return median(qs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a point reading of the Go runtime's allocation and GC
// counters.
type runtimeSample struct {
	at         time.Time
	allocBytes uint64
	gcCycles   uint64
	liveHeapMB float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{
		at:         time.Now(),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		liveHeapMB: float64(s[2].Value.Uint64()) / 1e6,
	}
}

// liveHeapMB forces a collection and returns the live heap it left.
func liveHeapMB() float64 {
	runtime.GC()
	return readRuntime().liveHeapMB
}

// setRuntime records the allocation and GC rates between two readings over
// requests operations.
func (r *report) setRuntime(before, after runtimeSample, requests int) {
	r.set("runtime.alloc_kb_per_request", ratio(float64(after.allocBytes-before.allocBytes)/1024, float64(requests)))
	r.set("runtime.gc_cycles_per_s", ratio(float64(after.gcCycles-before.gcCycles), after.at.Sub(before.at).Seconds()))
}

// coreTally sums the engine stats and wall time of the core-layer calls the
// traced phase timed.
type coreTally struct {
	runs   int
	wallNS int64
	stats  graphmat.Stats
	// Element sizes in bytes for the computed bytes-moved figure: per
	// processed edge, per message, per vertex property.
	edgeBytes, msgBytes, propBytes int
}

func (c *coreTally) add(s graphmat.Stats, wall time.Duration) {
	c.runs++
	c.wallNS += int64(wall)
	c.stats.Iterations += s.Iterations
	c.stats.EdgesProcessed += s.EdgesProcessed
	c.stats.ColumnsProbed += s.ColumnsProbed
	c.stats.MessagesSent += s.MessagesSent
	c.stats.Applies += s.Applies
	c.stats.PushSupersteps += s.PushSupersteps
	c.stats.PullSupersteps += s.PullSupersteps
	c.stats.Sched.Workers = max(c.stats.Sched.Workers, s.Sched.Workers)
	c.stats.Sched.Tasks += s.Sched.Tasks
	c.stats.Sched.Steals += s.Sched.Steals
	c.stats.Sched.BusyNS += s.Sched.BusyNS
}

// setCore records the core and sched metrics: per-run engine counters,
// edge rate, computed bytes moved, and scheduler utilization. The bytes
// figure is computed, not measured: each processed edge reads its index and
// weight, each probed column its pointer pair, each message and apply its
// vector element and property.
func (r *report) setCore(c *coreTally, tr *tracer) {
	r.set("core.push_superstep_p50_ms", median(tr.durations("core.superstep.push")))
	r.set("core.pull_superstep_p50_ms", median(tr.durations("core.superstep.pull")))
	if c.runs == 0 {
		return
	}
	n := float64(c.runs)
	s := c.stats
	r.set("core.push_share", ratio(float64(s.PushSupersteps), float64(s.PushSupersteps+s.PullSupersteps)))
	r.set("core.supersteps_per_run", float64(s.Iterations)/n)
	r.set("core.edges_per_run", float64(s.EdgesProcessed)/n)
	r.set("core.columns_probed_per_run", float64(s.ColumnsProbed)/n)
	r.set("core.edges_per_s", ratio(float64(s.EdgesProcessed), float64(c.wallNS)/1e9))
	bytes := s.EdgesProcessed*int64(c.edgeBytes) + s.ColumnsProbed*8 +
		s.MessagesSent*int64(c.msgBytes) + s.Applies*int64(2*c.propBytes)
	r.set("core.computed_mb_per_run", float64(bytes)/1e6/n)
	r.set("sched.tasks_per_run", float64(s.Sched.Tasks)/n)
	r.set("sched.steals_per_run", float64(s.Sched.Steals)/n)
	r.set("sched.busy_util", ratio(float64(s.Sched.BusyNS), float64(c.wallNS)*float64(max(1, s.Sched.Workers))))
}

// dirMB sums the sizes of the regular files under dir.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / 1e6, err
}

// timeMedian runs fn k times and returns the median wall time in seconds.
func timeMedian(k int, fn func() error) (float64, error) {
	var ds []float64
	for range k {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}
