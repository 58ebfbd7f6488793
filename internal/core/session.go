package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"graphmat/internal/graph"
)

// This file is the context-aware execution API: RunContext drives the same
// superstep loop as Run, but the run is observable (a per-superstep callback)
// and stoppable (context cancellation, a wall-clock budget, or the observer
// itself). Every other entry point — Run, RunWithWorkspace — is a thin
// wrapper over RunContext.

// StopReason classifies why a run ended; it is recorded in Stats.Reason.
type StopReason int

const (
	// ReasonNone is the zero value: the run has not been classified (only
	// seen on aggregated Stats, never on a completed run).
	ReasonNone StopReason = iota
	// Converged means no vertex remained active (Algorithm 2's natural
	// termination).
	Converged
	// MaxIterations means the run hit Config.MaxIterations.
	MaxIterations
	// Canceled means the run's context was canceled.
	Canceled
	// DeadlineExceeded means the context deadline or WithMaxDuration budget
	// expired.
	DeadlineExceeded
	// StoppedByObserver means a WithObserver callback returned an error.
	StoppedByObserver
)

// String names the reason for logs and JSON.
func (r StopReason) String() string {
	switch r {
	case ReasonNone:
		return ""
	case Converged:
		return "converged"
	case MaxIterations:
		return "max_iterations"
	case Canceled:
		return "canceled"
	case DeadlineExceeded:
		return "deadline_exceeded"
	case StoppedByObserver:
		return "stopped_by_observer"
	}
	return fmt.Sprintf("stop_reason(%d)", int(r))
}

// MarshalJSON encodes the reason as its string name.
func (r StopReason) MarshalJSON() ([]byte, error) {
	return []byte(`"` + r.String() + `"`), nil
}

// UnmarshalJSON decodes a string name back to the typed reason.
func (r *StopReason) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("core: stop reason must be a JSON string, got %s", b)
	}
	name := string(b[1 : len(b)-1])
	for _, cand := range []StopReason{ReasonNone, Converged, MaxIterations, Canceled, DeadlineExceeded, StoppedByObserver} {
		if cand.String() == name {
			*r = cand
			return nil
		}
	}
	return fmt.Errorf("core: unknown stop reason %q", name)
}

// err maps a stop reason to the error RunContext returns for it. Normal
// terminations map to nil.
func (r StopReason) err() error {
	switch r {
	case Canceled:
		return context.Canceled
	case DeadlineExceeded:
		return context.DeadlineExceeded
	}
	return nil
}

// IterationInfo is the per-superstep progress report delivered to observers.
type IterationInfo struct {
	// Iteration is the 1-based superstep number just completed.
	Iteration int `json:"iteration"`
	// Active is the frontier size entering the superstep.
	Active int64 `json:"active"`
	// Sent counts messages produced this superstep.
	Sent int64 `json:"sent"`
	// Applies counts vertices that received a reduced value this superstep.
	Applies int64 `json:"applies"`
	// NextActive is the frontier size for the next superstep; 0 means the
	// run converged.
	NextActive int64 `json:"next_active"`
	// Mode is the SpMV kernel the superstep ran (Pull or Push — Auto is
	// resolved per superstep before the multiply). A superstep that sent no
	// messages ran no kernel and reports the mode that would have been
	// chosen.
	Mode Mode `json:"mode"`
	// Elapsed is this superstep's wall time.
	Elapsed time.Duration `json:"elapsed"`
	// Total is the wall time since the run (or the driving algorithm's
	// session) started.
	Total time.Duration `json:"total"`
}

// Observer is a per-superstep callback. Returning a non-nil error stops the
// run with reason StoppedByObserver; RunContext returns that error verbatim.
// Observers run on the engine's goroutine between supersteps, so a slow
// observer stalls the run.
type Observer = func(IterationInfo) error

// RunOption configures a RunContext call.
type RunOption func(*runOptions)

type runOptions struct {
	observer    Observer
	maxDuration time.Duration
}

// WithObserver invokes fn after every superstep with that superstep's
// progress. An error return stops the run (reason StoppedByObserver).
func WithObserver(fn Observer) RunOption {
	return func(o *runOptions) { o.observer = fn }
}

// WithMaxDuration bounds the run's wall time; when the budget expires the run
// stops promptly — even mid-superstep — with reason DeadlineExceeded. It is
// the engine-level equivalent of a context deadline for callers that do not
// carry a context.
func WithMaxDuration(d time.Duration) RunOption {
	return func(o *runOptions) { o.maxDuration = d }
}

// controller carries a run's stop machinery into the superstep loop. The
// stop word holds 0 while the run may proceed and the StopReason once a stop
// was requested; workers in the parallel partition loops poll it with a
// single atomic load per task, so even a multi-second SpMV aborts within one
// partition's worth of work.
type controller struct {
	stop     atomic.Int32
	ctx      context.Context
	observer Observer
}

// signal requests a stop; the first reason wins.
func (c *controller) signal(r StopReason) { c.stop.CompareAndSwap(0, int32(r)) }

// stopped reports whether a stop was requested and why. The flag is the fast
// path; the context is polled too so a cancellation is seen at the very next
// superstep boundary even if the watcher goroutine has not run yet.
func (c *controller) stopped() (StopReason, bool) {
	if r := StopReason(c.stop.Load()); r != ReasonNone {
		return r, true
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			r := ctxReason(err)
			c.signal(r)
			return r, true
		}
	}
	return ReasonNone, false
}

// flag exposes the stop word for the partition loops; nil means "never
// stops" and lets parallelFor skip the poll entirely.
func (c *controller) flag() *atomic.Int32 {
	if c == nil {
		return nil
	}
	return &c.stop
}

// newController builds the run's controller, arming the context watcher and
// the wall-clock budget. The returned release func must be called when the
// run ends; it stops the timer and the watcher goroutine.
func newController(ctx context.Context, ro runOptions) (*controller, func()) {
	c := &controller{observer: ro.observer}
	var timer *time.Timer
	if ro.maxDuration > 0 {
		timer = time.AfterFunc(ro.maxDuration, func() { c.signal(DeadlineExceeded) })
	}
	var watchDone chan struct{}
	if ctx != nil && ctx.Done() != nil {
		c.ctx = ctx
		// Pre-canceled contexts stop the run before the first superstep.
		if err := ctx.Err(); err != nil {
			c.signal(ctxReason(err))
		} else {
			watchDone = make(chan struct{})
			go func() {
				select {
				case <-ctx.Done():
					c.signal(ctxReason(ctx.Err()))
				case <-watchDone:
				}
			}()
		}
	}
	release := func() {
		if timer != nil {
			timer.Stop()
		}
		if watchDone != nil {
			close(watchDone)
		}
	}
	return c, release
}

// ctxReason maps a context error to the stop reason it represents.
func ctxReason(err error) StopReason {
	if err == context.DeadlineExceeded {
		return DeadlineExceeded
	}
	return Canceled
}

// RunContext executes program p on graph g like Run, under ctx: cancellation
// and deadlines stop the run cooperatively — checked between supersteps and
// via an atomic flag inside the parallel partition loops, so even long SpMVs
// abort promptly. ws, when non-nil, is caller-managed scratch (it must match
// the graph's vertex count and the configuration's vector kind); nil
// allocates fresh scratch. Options attach a per-superstep observer and a
// wall-clock budget.
//
// The returned Stats always reflect the work actually done, and Stats.Reason
// records why the run ended. The error is nil for normal terminations
// (Converged, MaxIterations), ctx.Err() for Canceled/DeadlineExceeded, and
// the observer's own error for StoppedByObserver. After a stopped run the
// graph's vertex state and active set are partial — mid-algorithm — but the
// workspace is reusable as-is: the engine clears scratch at the start of
// every superstep.
func RunContext[V, E, M, R any, P Program[V, E, M, R]](
	ctx context.Context, g *graph.Graph[V, E], p P, cfg Config, ws *Workspace[M, R], opts ...RunOption,
) (Stats, error) {
	if err := cfg.check(); err != nil {
		return Stats{}, err
	}
	cfg = cfg.withDefaults()
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	ctrl, release := newController(ctx, ro)
	defer release()
	if cfg.Dispatch == Boxed {
		// The boxed (naive) dispatch path manages its own type-erased
		// scratch and ignores ws.
		return runBoxed(g, p, cfg, ctrl)
	}
	if ws == nil {
		ws = NewWorkspace[M, R](int(g.NumVertices()), cfg.Vector)
	} else if err := ws.Check(int(g.NumVertices()), cfg.Vector); err != nil {
		return Stats{}, err
	}
	return runTyped(g, p, cfg, ws, ctrl)
}
