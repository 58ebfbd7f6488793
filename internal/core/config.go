package core

import (
	"fmt"
	"runtime"
)

// Mode selects the SpMV kernel backend a superstep runs (the
// direction-optimization axis of GraphBLAST/Ligra: a column-driven "pull"
// probe of every stored column versus a frontier-driven "push" SpMSpV).
// Every mode produces bit-identical results — both kernels fold reductions
// in ascending column order within each partition's disjoint output row
// range — so Mode, like Threads, is purely a performance knob.
type Mode int

const (
	// Auto (the zero value) chooses per superstep: push when the frontier's
	// outgoing edge work is a small fraction of the structure's total edges,
	// pull otherwise. See Config.PushThreshold.
	Auto Mode = iota
	// Pull always runs the column-driven kernel: probe every stored column
	// of every partition against the message vector (Algorithm 1 as the
	// paper wrote it). Best for dense frontiers (PageRank-style ranking).
	Pull
	// Push always runs the frontier-driven SpMSpV: iterate the message
	// vector's nonzeros and look each up in the partition's column index.
	// Best for sparse frontiers (high-diameter traversals).
	Push
)

// String names the mode for flags, logs and JSON.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Pull:
		return "pull"
	case Push:
		return "push"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// MarshalJSON encodes the mode as its string name.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON decodes a string name back to the typed mode.
func (m *Mode) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("core: mode must be a JSON string, got %s", b)
	}
	mode, err := ParseMode(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*m = mode
	return nil
}

// ParseMode resolves a mode name ("auto", "pull", "push"); the empty string
// means Auto, matching the zero value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "pull":
		return Pull, nil
	case "push":
		return Push, nil
	}
	return Auto, fmt.Errorf("core: unknown kernel mode %q (want auto, pull or push)", s)
}

// DefaultPushThreshold is the Auto density cutoff when Config.PushThreshold
// is zero: a superstep pushes when frontier edge work × 20 fits in the
// structure's total edge count — Ligra's |E|/20 heuristic.
const DefaultPushThreshold = 20

// VectorKind selects the sparse-vector representation for the message
// vector (paper §4.4.2 discusses both and measures the bitvector faster).
type VectorKind int

const (
	// Bitvector stores messages in a bitvector-masked dense array — the
	// representation the paper selects.
	Bitvector VectorKind = iota
	// Sorted stores messages as a sorted (index, value) tuple array — the
	// paper's rejected alternative, kept only for the Figure 7 "naive"
	// baseline: it runs on the Boxed dispatch path alone, and the engine
	// rejects it with Inlined dispatch.
	Sorted
)

// Dispatch selects how user callbacks are invoked from the SpMV inner loop.
type Dispatch int

const (
	// Inlined uses the generic (monomorphized) SpMV: the Go compiler
	// specializes the kernel per program, inlining the callbacks. This is
	// the analogue of the paper's -ipo inter-procedural optimization (§4.5
	// item 2).
	Inlined Dispatch = iota
	// Boxed routes every message and result through interface{} values and
	// func-typed callbacks, preventing inlining — the pre-"+ipo" scalar
	// code of Figure 7.
	Boxed
)

// Runtime selects the parallel execution substrate the engine phases run
// on. Like Mode and Schedule it is purely a performance knob: tasks write
// disjoint 64-aligned output ranges and fold in a fixed order inside each
// task, so both runtimes produce bit-identical results.
type Runtime int

const (
	// Pooled (the zero value) dispatches phases through the persistent
	// shared worker pool (internal/sched): workers are spawned once per
	// process and parked between phases, tasks are dealt as per-worker
	// spans with work stealing, and pull-superstep SpMV tasks are
	// nnz-weighted — heavy partitions split into row sub-ranges of
	// roughly equal edge work (see shapeTasks).
	Pooled Runtime = iota
	// PerCall spawns fresh goroutines on every phase call and hands out
	// partition-granular SpMV tasks — the pre-pool engine behavior, kept
	// as the scheduling ablation baseline.
	PerCall
)

// String names the runtime for flags, logs and JSON.
func (r Runtime) String() string {
	switch r {
	case Pooled:
		return "pooled"
	case PerCall:
		return "percall"
	}
	return fmt.Sprintf("runtime(%d)", int(r))
}

// Schedule selects how matrix partitions are assigned to worker goroutines.
type Schedule int

const (
	// Dynamic has workers pull partitions from a shared queue; with many
	// more partitions than threads this is the paper's load-balancing
	// recipe (§4.5 item 4).
	Dynamic Schedule = iota
	// Static assigns partitions round-robin up front ("the number of graph
	// partitions equals number of threads" regime of the ablation).
	Static
)

// Config controls one engine run. The zero value requests the fully
// optimized configuration on all available cores.
type Config struct {
	// Threads is the number of worker goroutines; 0 means GOMAXPROCS.
	Threads int
	// MaxIterations caps the superstep count; <= 0 means run until no
	// vertex is active (the paper's -1 convention).
	MaxIterations int
	// Vector selects the message-vector representation. Sorted is valid
	// only with Dispatch: Boxed (the Figure 7 "naive" ablation); the
	// inlined kernels always use the bitvector, and RunContext and
	// SpMVContext reject Sorted with Inlined dispatch.
	Vector VectorKind
	// Dispatch selects inlined or boxed user-callback invocation.
	Dispatch Dispatch
	// Schedule selects dynamic or static partition assignment.
	Schedule Schedule
	// Mode selects the SpMV kernel backend: Auto (default) switches between
	// the push and pull kernels per superstep by frontier density; Pull and
	// Push force one kernel. All three produce bit-identical results. The
	// boxed (naive) dispatch path ignores Mode and always pulls.
	Mode Mode
	// PushThreshold tunes Auto: a superstep pushes when the frontier's
	// outgoing edge work × PushThreshold is at most the traversal
	// structure's total edge count. 0 means DefaultPushThreshold (20);
	// higher values push less often.
	PushThreshold float64
	// Runtime selects the execution substrate: Pooled (default) runs
	// phases on the persistent work-stealing pool with nnz-weighted task
	// shaping; PerCall keeps the legacy per-call goroutine fan-out with
	// partition-granular tasks (the scheduling ablation baseline).
	Runtime Runtime
}

// check rejects configurations no engine path runs: the sorted message
// vector exists only on the boxed (naive) dispatch path.
func (c Config) check() error {
	if c.Vector == Sorted && c.Dispatch != Boxed {
		return fmt.Errorf("core: the sorted message vector runs only with boxed dispatch")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats reports what one engine run did. The counter fields are exact tallies
// of engine work, used both for tests and as the software performance-counter
// proxies behind the Figure 6 reproduction (see internal/counters).
type Stats struct {
	// Iterations is the number of supersteps executed.
	Iterations int
	// MessagesSent counts SendMessage calls that produced a message.
	MessagesSent int64
	// EdgesProcessed counts ProcessMessage calls (edge traversals).
	EdgesProcessed int64
	// Applies counts Apply calls (vertices that received a reduced value).
	Applies int64
	// ActiveSum is the cumulative size of the active set over supersteps.
	ActiveSum int64
	// ColumnsProbed counts presence probes: per pull superstep, one per
	// stored column; per push superstep, one per frontier vertex per
	// partition (the column-index lookups).
	ColumnsProbed int64
	// PushSupersteps counts supersteps executed with the push (SpMSpV)
	// kernel; PullSupersteps counts supersteps executed with the pull
	// kernel. Supersteps that sent no messages run no kernel and count in
	// neither.
	PushSupersteps int64
	// PullSupersteps counts supersteps executed with the pull kernel.
	PullSupersteps int64
	// Reason records why the run ended (Converged, MaxIterations, Canceled,
	// DeadlineExceeded, StoppedByObserver). Aggregated stats — sums over
	// many runs — leave it at ReasonNone.
	Reason StopReason
	// Sched reports the run's scheduler work (see SchedStats). Unlike the
	// engine tallies above, BusyNS and Steals are wall-clock-dependent and
	// vary run to run; differential assertions must not compare them.
	Sched SchedStats
}

// SchedStats is one run's view of the worker-pool runtime: how many tasks
// the run's phases dispatched, how many of them moved between workers by
// stealing, and the summed busy time of every participating worker. Tasks
// is deterministic for a fixed Config and graph; Steals and BusyNS are
// scheduling outcomes. Process-cumulative per-worker counters (including
// the park→wake counts) are exported separately via /v1/stats.
type SchedStats struct {
	// Workers is the configured worker count the run dispatched to.
	Workers int
	// Tasks counts scheduler tasks executed across all phases: chunk
	// tasks in the send/apply phases plus (possibly row-split) SpMV tasks
	// in the multiply phase.
	Tasks int64
	// Steals counts tasks that ran on a worker other than the one whose
	// span initially held them.
	Steals int64
	// BusyNS is the summed wall time workers spent executing this run's
	// phases.
	BusyNS int64
}
