// Package sched is the engine's persistent worker-pool runtime: one set of
// long-lived worker goroutines per worker count, parked on a condition
// variable between phases and woken in O(1) when a run arrives, replacing
// the per-call goroutine fan-outs the engine phases used to pay on every
// superstep (spawn + WaitGroup barrier, ~µs each, × 3 phases × supersteps).
//
// Execution model. A Run call packs its tasks into per-slot spans —
// contiguous [lo, hi) index ranges, one per worker slot, stored as a single
// packed atomic word — and publishes the job to the pool. Executors claim a
// span and pop tasks from its low end; when their span drains they steal
// single tasks from the high end of other slots' spans (Chase-Lev style
// owner/thief ends, collapsed to one CAS word because tasks never re-enter
// a span). The *caller participates as an executor* of its own job, which
// gives two guarantees for free: a Run can never deadlock even if every
// pool worker is busy elsewhere (the caller alone drains it), and nested
// Run calls from inside a task are safe for the same reason.
//
// Cancellation keeps the engine's contract: stop, when non-nil, is polled
// before every task; once nonzero the remaining tasks are drained without
// executing, so a cancel aborts a multi-second sweep at task granularity.
//
// Instrumentation: every worker slot keeps cumulative tasks-run / steal /
// busy-ns / wake counters (cache-line padded), snapshotted by Stats and —
// across all shared pools — by Snapshot for /v1/stats; a per-Run Tally
// feeds the engine's per-run Stats.
package sched

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerStats is a snapshot of one worker slot's cumulative counters.
// Slot 0 belongs to callers (Run participates in its own job); slots
// 1..workers-1 are the pool's parked goroutines.
type WorkerStats struct {
	// Tasks counts tasks this slot executed (excluding tasks drained
	// after a stop).
	Tasks int64 `json:"tasks"`
	// Steals counts tasks this slot took from another slot's span.
	Steals int64 `json:"steals"`
	// BusyNS is the cumulative wall time this slot spent participating in
	// jobs (claiming, executing and stealing tasks).
	BusyNS int64 `json:"busy_ns"`
	// Wakes counts park→run transitions: how many times the slot was
	// woken from the condition variable and found work.
	Wakes int64 `json:"wakes"`
}

// Tally accumulates one Run call's execution counts: how many tasks ran,
// how many arrived by stealing, and the summed busy time of every
// participating executor. The engine threads one through a run to report
// scheduler work in its Stats.
type Tally struct {
	Tasks  atomic.Int64
	Steals atomic.Int64
	BusyNS atomic.Int64
}

// Options tunes one Run call.
type Options struct {
	// NoSteal pins tasks to their initial contiguous span assignment —
	// the static-schedule ablation. Idle executors still claim whole
	// unclaimed spans (liveness does not depend on any particular worker
	// being free), but never take tasks from a claimed one.
	NoSteal bool
	// Tally, when non-nil, additionally accumulates this call's counts.
	Tally *Tally
}

// counters is one worker slot's cumulative tallies, padded to a cache line
// so slots never false-share.
type counters struct {
	tasks  atomic.Int64
	steals atomic.Int64
	busyNS atomic.Int64
	wakes  atomic.Int64
	_      [32]byte
}

// span is one slot's task range, packed lo<<32|hi into a single atomic
// word: the owner pops from lo with a CAS, thieves pop from hi with a CAS,
// and the span is empty when lo >= hi. Padded so concurrent CAS traffic on
// neighbouring spans stays off each other's cache line.
type span struct {
	s atomic.Uint64
	_ [56]byte
}

func packSpan(lo, hi uint32) uint64 { return uint64(lo)<<32 | uint64(hi) }

// job is one Run call in flight.
type job struct {
	fn   func(task, worker int)
	stop *atomic.Int32
	// spans holds the per-slot task ranges; claim hands out span ownership
	// in order, so spans of busy slots are adopted by whoever is free.
	spans     []span
	claim     atomic.Int32
	remaining atomic.Int64
	done      chan struct{}
	noSteal   bool
	tally     *Tally
}

// hasWork reports whether an executor could still acquire a task: an
// unclaimed span remains, or (with stealing) any span is nonempty.
func (j *job) hasWork() bool {
	if int(j.claim.Load()) < len(j.spans) {
		return true
	}
	if j.noSteal {
		return false
	}
	for i := range j.spans {
		v := j.spans[i].s.Load()
		if uint32(v>>32) < uint32(v) {
			return true
		}
	}
	return false
}

// popLo takes the next task from the low (owner) end of span si.
func (j *job) popLo(si int) (int, bool) {
	sp := &j.spans[si].s
	for {
		v := sp.Load()
		lo, hi := uint32(v>>32), uint32(v)
		if lo >= hi {
			return 0, false
		}
		if sp.CompareAndSwap(v, packSpan(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// popHi takes one task from the high (thief) end of span si.
func (j *job) popHi(si int) (int, bool) {
	sp := &j.spans[si].s
	for {
		v := sp.Load()
		lo, hi := uint32(v>>32), uint32(v)
		if lo >= hi {
			return 0, false
		}
		if sp.CompareAndSwap(v, packSpan(lo, hi-1)) {
			return int(hi - 1), true
		}
	}
}

// Pool is a persistent set of worker goroutines executing Run calls. A
// Pool of n workers runs a job on at most n executors: n-1 parked
// goroutines plus the calling goroutine. Pools are safe for concurrent Run
// calls from multiple goroutines; jobs share the workers.
type Pool struct {
	nworkers int
	mu       sync.Mutex
	cond     *sync.Cond
	jobs     []*job
	closed   bool
	wg       sync.WaitGroup
	counters []counters
}

// NewPool creates a pool with n worker slots (minimum 1), spawning n-1
// goroutines. Prefer Shared outside tests: pools are cheap to keep but not
// to churn.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{nworkers: n, counters: make([]counters, n)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go p.worker(w)
	}
	return p
}

// Workers returns the pool's worker-slot count.
func (p *Pool) Workers() int { return p.nworkers }

// Close shuts the pool's worker goroutines down and waits for them to
// exit. It must not race with Run. Shared pools are never closed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Stats snapshots the pool's per-slot cumulative counters.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.counters))
	for i := range p.counters {
		c := &p.counters[i]
		out[i] = WorkerStats{
			Tasks:  c.tasks.Load(),
			Steals: c.steals.Load(),
			BusyNS: c.busyNS.Load(),
			Wakes:  c.wakes.Load(),
		}
	}
	return out
}

// Run executes fn(task, worker) for every task in [0, ntasks) on up to
// Workers() executors (the pool's parked workers plus the caller) and
// returns when all tasks have finished. worker indices are unique among
// the job's concurrent executors and < Workers(), so callers may index
// per-worker scratch with them. stop, when non-nil, is polled before every
// task: once nonzero, remaining tasks are abandoned. Tasks are dealt as
// contiguous per-slot spans and rebalanced by work stealing, so no
// execution-order assumption is sound beyond: each task runs exactly once,
// on exactly one executor.
func (p *Pool) Run(ntasks int, stop *atomic.Int32, fn func(task, worker int)) {
	p.RunOptions(ntasks, stop, Options{}, fn)
}

// RunOptions is Run with scheduling options.
func (p *Pool) RunOptions(ntasks int, stop *atomic.Int32, opts Options, fn func(task, worker int)) {
	if ntasks <= 0 {
		return
	}
	if p.nworkers == 1 || ntasks == 1 {
		p.runInline(ntasks, stop, opts, fn)
		return
	}
	j := &job{fn: fn, stop: stop, noSteal: opts.NoSteal, tally: opts.Tally, done: make(chan struct{})}
	nspans := p.nworkers
	if nspans > ntasks {
		nspans = ntasks
	}
	j.spans = make([]span, nspans)
	for s := 0; s < nspans; s++ {
		j.spans[s].s.Store(packSpan(uint32(s*ntasks/nspans), uint32((s+1)*ntasks/nspans)))
	}
	j.remaining.Store(int64(ntasks))

	p.mu.Lock()
	p.jobs = append(p.jobs, j)
	p.mu.Unlock()
	// Wake one parked worker per span beyond the caller's own slot: a
	// broadcast would schedule every worker just to find nothing
	// acquirable when the job has fewer spans than the pool has workers.
	// A signal that lands while its target is still busy on another job is
	// not lost — workers re-check the job list before parking.
	for w := 1; w < nspans; w++ {
		p.cond.Signal()
	}

	p.work(0, j)
	<-j.done

	p.mu.Lock()
	for i, q := range p.jobs {
		if q == j {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// runInline executes the job on the calling goroutine alone (single-slot
// pools and single-task jobs skip the publish/park machinery entirely).
func (p *Pool) runInline(ntasks int, stop *atomic.Int32, opts Options, fn func(task, worker int)) {
	t0 := time.Now()
	ran := int64(0)
	for i := 0; i < ntasks; i++ {
		if stop != nil && stop.Load() != 0 {
			break
		}
		fn(i, 0)
		ran++
	}
	busy := time.Since(t0).Nanoseconds()
	p.counters[0].tasks.Add(ran)
	p.counters[0].busyNS.Add(busy)
	if t := opts.Tally; t != nil {
		t.Tasks.Add(ran)
		t.BusyNS.Add(busy)
	}
}

// worker is one parked goroutine's loop: wait for a job with acquirable
// work, participate, repeat.
func (p *Pool) worker(wid int) {
	defer p.wg.Done()
	for {
		j := p.nextJob(wid)
		if j == nil {
			return
		}
		p.work(wid, j)
	}
}

// nextJob blocks until some queued job has acquirable work (or the pool
// closes). Work only ever appears with a new job — tasks never re-enter a
// span — so waiting on the job-arrival broadcast cannot miss a wakeup.
func (p *Pool) nextJob(wid int) *job {
	p.mu.Lock()
	defer p.mu.Unlock()
	waited := false
	for {
		if p.closed {
			return nil
		}
		for _, j := range p.jobs {
			if j.hasWork() {
				if waited {
					p.counters[wid].wakes.Add(1)
				}
				return j
			}
		}
		waited = true
		p.cond.Wait()
	}
}

// work participates in job j as slot wid until the job has no task this
// executor could acquire: claim unclaimed spans and drain them from the
// owner end, then steal from the thief end of the others.
func (p *Pool) work(wid int, j *job) {
	t0 := time.Now()
	var popped, stolen int64
	for {
		if si := int(j.claim.Add(1) - 1); si < len(j.spans) {
			for {
				task, ok := j.popLo(si)
				if !ok {
					break
				}
				popped++
				p.exec(j, task, wid)
			}
			continue
		}
		if j.noSteal {
			break
		}
		task, si := -1, -1
		for i := range j.spans {
			if t, ok := j.popHi(i); ok {
				task, si = t, i
				break
			}
		}
		if si < 0 {
			break
		}
		popped++
		stolen++
		p.exec(j, task, wid)
	}
	if popped == 0 {
		return
	}
	busy := time.Since(t0).Nanoseconds()
	c := &p.counters[wid]
	c.steals.Add(stolen)
	c.busyNS.Add(busy)
	if t := j.tally; t != nil {
		t.Steals.Add(stolen)
		t.BusyNS.Add(busy)
	}
}

// exec runs (or, once stopped, abandons) one task and completes the job
// when it was the last. The task is counted before the completion signal,
// so task counts are exact once Run returns; steals and busy time are added
// when each participant leaves the job, possibly just after.
func (p *Pool) exec(j *job, task, wid int) {
	if j.stop == nil || j.stop.Load() == 0 {
		j.fn(task, wid)
		p.counters[wid].tasks.Add(1)
		if t := j.tally; t != nil {
			t.Tasks.Add(1)
		}
	}
	if j.remaining.Add(-1) == 0 {
		close(j.done)
	}
}

// Shared pools, keyed by worker count: the process-wide persistent runtime.
// A pool is spawned on first request for its size and parked forever after
// — workers survive across runs, workspaces and sessions, which is what
// removes the per-phase spawn cost. Shared pools are never closed.
var (
	sharedMu sync.Mutex
	shared   = map[int]*Pool{}
)

// Shared returns the process-wide pool with n worker slots, creating it on
// first use.
func Shared(n int) *Pool {
	if n < 1 {
		n = 1
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if p, ok := shared[n]; ok {
		return p
	}
	p := NewPool(n)
	shared[n] = p
	return p
}

// PoolStats is one shared pool's stats snapshot for /v1/stats.
type PoolStats struct {
	// Workers is the pool's worker-slot count (slot 0 is the callers'
	// slot: Run participates in its own jobs).
	Workers int `json:"workers"`
	// PerWorker is the per-slot cumulative counter snapshot.
	PerWorker []WorkerStats `json:"per_worker"`
}

// Snapshot returns the cumulative counters of every shared pool spawned so
// far, ordered by worker count.
func Snapshot() []PoolStats {
	sharedMu.Lock()
	pools := make([]*Pool, 0, len(shared))
	for _, p := range shared {
		pools = append(pools, p)
	}
	sharedMu.Unlock()
	sort.Slice(pools, func(i, k int) bool { return pools[i].nworkers < pools[k].nworkers })
	out := make([]PoolStats, len(pools))
	for i, p := range pools {
		out[i] = PoolStats{Workers: p.nworkers, PerWorker: p.Stats()}
	}
	return out
}
