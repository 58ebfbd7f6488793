package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"graphmat"
	"graphmat/algorithms"
)

// runHold holds a batcher's first dispatched run in flight until release,
// so a test can queue requests behind it without relying on timing, and
// records the width of every dispatched run.
type runHold struct {
	started chan struct{} // closed once the first run is in flight
	release chan struct{} // close to let the first run proceed

	mu     sync.Mutex
	widths []int
}

func holdFirstRun(b *batcher) *runHold {
	h := &runHold{started: make(chan struct{}), release: make(chan struct{})}
	b.onFlush = func(width int) {
		h.mu.Lock()
		h.widths = append(h.widths, width)
		first := len(h.widths) == 1
		h.mu.Unlock()
		if first {
			close(h.started)
			<-h.release
		}
	}
	return h
}

func (h *runHold) dispatched() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.widths...)
}

// waitSubmitted blocks until the batcher has admitted n requests. A request
// is counted and queued under the same lock, so once n are counted every
// one of them is queued (or running).
func waitSubmitted(t *testing.T, b *batcher, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.stats().Submitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("batcher admitted %d requests, want %d", b.stats().Submitted, n)
		}
		time.Sleep(time.Millisecond)
	}
}

type submitOutcome struct {
	res    algorithms.Result
	shared bool
	err    error
}

func submitAsync(ctx context.Context, b *batcher, entry *GraphEntry, algo string, src uint32) <-chan submitOutcome {
	out := make(chan submitOutcome, 1)
	go func() {
		res, shared, err := b.submit(ctx, entry, algo, algorithms.Params{Source: src})
		out <- submitOutcome{res, shared, err}
	}()
	return out
}

func sameSeries(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s vertex %d: got %v, want %v", what, v, got[v], want[v])
		}
	}
}

// TestBatcherEpochPin is the regression test for the admission-epoch skew
// bug: an update batch landing while a request is queued must not drag its
// batch onto the new snapshot. The batch key promised its waiters the
// admission epoch, and the result must carry it.
func TestBatcherEpochPin(t *testing.T) {
	reg := NewRegistry(0, 1, "")
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	want, err := entry.Run("bfs", algorithms.Params{Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher()
	hold := holdFirstRun(b)

	first := submitAsync(context.Background(), b, entry, "bfs", 0)
	<-hold.started
	queued := submitAsync(context.Background(), b, entry, "bfs", 1)
	waitSubmitted(t, b, 2)
	// The update lands while the first run is in flight and the second
	// request waits behind it.
	if _, _, err := entry.ApplyEdges([]algorithms.EdgeUpdate{{Src: 1, Dst: 40, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	close(hold.release)

	a, q := <-first, <-queued
	for _, got := range []submitOutcome{a, q} {
		if got.err != nil {
			t.Fatal(got.err)
		}
		if got.res.Epoch != 0 {
			t.Errorf("request admitted before the update ran at epoch %d, want the admission epoch 0", got.res.Epoch)
		}
	}
	// The update gives vertex 1 a new neighbor, so only the epoch-0 edge set
	// yields these values.
	sameSeries(t, "queued request", q.res.Values, want.Values)

	// A request admitted after the update keys — and runs — on the new epoch.
	res, shared, err := b.submit(context.Background(), entry, "bfs", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Error("post-update request joined a batch from the old epoch")
	}
	if res.Epoch != 1 {
		t.Errorf("post-update request ran at epoch %d, want 1", res.Epoch)
	}
}

// TestBatcherWidthCap is the regression test for the width-overflow bug:
// under concurrent same-key submission, no dispatched block run may exceed
// graphmat.MaxBlockSources, and every admitted request must be dispatched
// exactly once. Admission used to close outside the fullness-detecting lock,
// letting a racing submit slip a 65th source into a full batch.
func TestBatcherWidthCap(t *testing.T) {
	reg := NewRegistry(0, 1, "")
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, 64)
	for src := range want {
		res, err := entry.Run("bfs", algorithms.Params{Source: uint32(src)})
		if err != nil {
			t.Fatal(err)
		}
		want[src] = res.Values
	}
	b := newBatcher()
	hold := holdFirstRun(b)

	// One run in flight, then two full blocks and a remainder racing on one
	// key behind it.
	n := 2*graphmat.MaxBlockSources + 3
	outs := make([]<-chan submitOutcome, n)
	outs[0] = submitAsync(context.Background(), b, entry, "bfs", 0)
	<-hold.started
	for i := 1; i < n; i++ {
		outs[i] = submitAsync(context.Background(), b, entry, "bfs", uint32(i%64))
	}
	waitSubmitted(t, b, int64(n))
	close(hold.release)
	for i, out := range outs {
		got := <-out
		if got.err != nil {
			t.Fatal(got.err)
		}
		sameSeries(t, "request", got.res.Values, want[i%64])
	}

	widths := hold.dispatched()
	total := 0
	for _, w := range widths {
		if w > graphmat.MaxBlockSources {
			t.Errorf("dispatched a block of width %d, cap is %d", w, graphmat.MaxBlockSources)
		}
		total += w
	}
	if total != n {
		t.Errorf("dispatched %d sources across %d blocks, admitted %d", total, len(widths), n)
	}
	// The run in flight, then the queue in as few blocks as the cap allows.
	if len(widths) != 4 {
		t.Errorf("dispatched widths %v, want 1 then three blocks", widths)
	}
	if st := b.stats(); st.Submitted != int64(n) {
		t.Errorf("stats count %d submissions, want %d", st.Submitted, n)
	}
}

// TestBatcherCanceledWaiter: the waiter that opened a queued batch — its pin
// is the batch's pin, and it is first in line when the run in flight ends —
// gives up before the batch starts. Every other waiter must still get a
// correct answer, and every pin must be released.
func TestBatcherCanceledWaiter(t *testing.T) {
	reg := NewRegistry(0, 1, "")
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, 4)
	for src := range want {
		res, err := entry.Run("bfs", algorithms.Params{Source: uint32(src)})
		if err != nil {
			t.Fatal(err)
		}
		want[src] = res.Values
	}
	b := newBatcher()
	hold := holdFirstRun(b)

	inFlight := submitAsync(context.Background(), b, entry, "bfs", 0)
	<-hold.started
	ctx, cancel := context.WithCancel(context.Background())
	opener := submitAsync(ctx, b, entry, "bfs", 1)
	waitSubmitted(t, b, 2)
	others := []<-chan submitOutcome{
		submitAsync(context.Background(), b, entry, "bfs", 2),
		submitAsync(context.Background(), b, entry, "bfs", 3),
	}
	waitSubmitted(t, b, 4)
	cancel()
	if got := <-opener; !errors.Is(got.err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", got.err)
	}
	close(hold.release)

	got := <-inFlight
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.shared {
		t.Error("the run in flight reported sharing")
	}
	sameSeries(t, "run in flight", got.res.Values, want[0])
	for i, out := range others {
		got := <-out
		if got.err != nil {
			t.Fatal(got.err)
		}
		if !got.shared {
			t.Errorf("queued source %d: not reported as shared", i+2)
		}
		sameSeries(t, "queued request", got.res.Values, want[i+2])
	}
	if widths := hold.dispatched(); len(widths) != 2 || widths[0] != 1 || widths[1] != 3 {
		t.Errorf("dispatched widths %v, want [1 3]: the canceled source still rides its batch", widths)
	}
	// A batch releases its pin before it wakes its waiters.
	ai, err := entry.instance("bfs")
	if err != nil {
		t.Fatal(err)
	}
	if pinned := ai.inst.StoreStats().Pinned; pinned != 0 {
		t.Errorf("%d snapshots still pinned after every request finished", pinned)
	}
}
