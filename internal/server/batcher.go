package server

import (
	"context"
	"sync"

	"graphmat"
	"graphmat/algorithms"
)

// The admission/batching layer of the v1 run API: group commit over
// single-source requests. Requests for the same (graph, algorithm, epoch,
// non-source parameters) share a batch key. When no run for a key is in
// flight, a request runs at once, alone, on the scalar engine. Requests that
// arrive while a run for their key is in flight queue behind it, and when
// that run ends the queue is dispatched as one multi-source block run — the
// k queued requests share every adjacency sweep instead of paying k of them
// — whose per-source columns fan back out to the waiting requests. Nothing
// is timed: a lone query never waits for company, and company gathers
// exactly while the engine is busy anyway. Because the block engine is
// bit-identical per source to the scalar engine, coalescing is invisible to
// clients except in latency: each response carries exactly the values a
// solo run would have produced.

// batchKey identifies requests that may share one block run. The epoch is
// part of the key so requests straddling an update batch never share a
// snapshot they would disagree about; the params key has the source stripped
// (that is the dimension being batched over). The epoch is the instance
// store's snapshot epoch, read from the pin taken at admission — the same
// snapshot the batch will run on, so the promise the key makes is the one
// the result keeps.
type batchKey struct {
	g      *GraphEntry
	algo   string
	epoch  uint64
	params string
}

// sharedParamsKey canonicalizes the non-source parameters of a request.
func sharedParamsKey(p algorithms.Params) string {
	p.Source, p.Sources = 0, nil
	return p.Key()
}

// pendingBatch is one admitted batch: the sources gathered so far, the
// snapshot pin taken when its first request was admitted (the epoch every
// waiter was promised by the batch key), and the completion the waiters
// block on.
type pendingBatch struct {
	p       algorithms.Params // shared non-source parameters
	pin     algorithms.Pin    // admission-time snapshot; released by run
	sources []uint32
	done    chan struct{}
	res     algorithms.BatchResult
	err     error
}

type batcher struct {
	mu sync.Mutex
	// inflight has an entry for every key with a run in flight: the batches
	// queued behind that run, in admission order. Only the last one still
	// accepts sources; each holds at most graphmat.MaxBlockSources.
	inflight map[batchKey][]*pendingBatch

	// Tallies for GET /stats.
	submitted int64 // single-source requests admitted
	batches   int64 // runs dispatched
	coalesced int64 // requests that shared a run with at least one other

	// onFlush, when set, is called with each dispatched run's width just
	// before the run starts, in the goroutine that runs it — a test hook for
	// asserting the admission cap, and for holding a run in flight (by
	// blocking) while a test queues requests behind it.
	onFlush func(width int)
}

func newBatcher() *batcher {
	return &batcher{inflight: make(map[batchKey][]*pendingBatch)}
}

// submit admits one single-source request and returns its result as an
// ordinary single-source Result. When the request shares a run with others,
// the Stats are the whole batch's aggregate — batching trades per-request
// stat attribution for shared sweeps — and the second return is true.
//
// A request that runs at once runs under ctx. A queued request's ctx bounds
// only its own wait: the batch it joined runs under a background context,
// because the other waiters still want the result.
func (b *batcher) submit(ctx context.Context, g *GraphEntry, algo string, p algorithms.Params) (algorithms.Result, bool, error) {
	ai, err := g.instance(algo)
	if err != nil {
		return algorithms.Result{}, false, err
	}
	// Pin the snapshot BEFORE keying: the epoch in the batch key and the
	// epoch the run executes on are then the same pinned snapshot by
	// construction, so an update landing while the request waits cannot
	// skew its batch onto a newer edge set than its waiters were promised.
	pin := ai.inst.AcquirePin()
	key := batchKey{g: g, algo: algo, epoch: pin.Epoch(), params: sharedParamsKey(p)}
	b.mu.Lock()
	b.submitted++
	queued, busy := b.inflight[key]
	if !busy {
		// Nothing in flight for this key: run at once.
		b.inflight[key] = nil
		b.batches++
		b.mu.Unlock()
		pb := &pendingBatch{p: p, pin: pin, sources: []uint32{p.Source}, done: make(chan struct{})}
		func() {
			defer b.next(key)
			b.run(ctx, key, pb)
		}()
		if pb.err != nil {
			return algorithms.Result{}, false, pb.err
		}
		return algorithms.Result{Values: pb.res.Values[0], Stats: pb.res.Stats, Epoch: pb.res.Epoch}, false, nil
	}
	// Queue behind the run in flight: join the open batch, or open a new
	// one when there is none or it is full. Admission to a batch closes
	// under this lock when next dequeues it, so no batch can exceed
	// graphmat.MaxBlockSources and no source is dispatched twice.
	var pb *pendingBatch
	n := len(queued)
	joined := n > 0 && len(queued[n-1].sources) < graphmat.MaxBlockSources
	if joined {
		pb = queued[n-1]
	} else {
		pb = &pendingBatch{p: p, pin: pin, done: make(chan struct{})}
		b.inflight[key] = append(queued, pb)
	}
	idx := len(pb.sources)
	pb.sources = append(pb.sources, p.Source)
	b.mu.Unlock()
	if joined {
		// The batch already holds the pin its key promises; this request's
		// own pin was only needed to compute the key.
		pin.Release()
	}
	select {
	case <-pb.done:
	case <-ctx.Done():
		return algorithms.Result{}, false, ctx.Err()
	}
	if pb.err != nil {
		return algorithms.Result{}, false, pb.err
	}
	return algorithms.Result{
		Values: pb.res.Values[idx],
		Stats:  pb.res.Stats,
		Epoch:  pb.res.Epoch,
	}, len(pb.res.Sources) > 1, nil
}

// next ends the key's run in flight: it dispatches the first batch queued
// behind it on a new goroutine, which calls next again when its run ends,
// or, with nothing queued, marks the key idle.
func (b *batcher) next(key batchKey) {
	b.mu.Lock()
	queued := b.inflight[key]
	if len(queued) == 0 {
		delete(b.inflight, key)
		b.mu.Unlock()
		return
	}
	pb := queued[0]
	b.inflight[key] = queued[1:]
	b.batches++
	if len(pb.sources) > 1 {
		b.coalesced += int64(len(pb.sources))
	}
	b.mu.Unlock()
	go func() {
		defer b.next(key)
		b.run(context.Background(), key, pb)
	}()
}

// run executes one admitted batch on the snapshot pinned at admission,
// releases the pin and wakes the waiters. A batch of width 1 runs on the
// scalar engine through the instance's reused workspace; a wider one runs
// as one multi-source block run.
func (b *batcher) run(ctx context.Context, key batchKey, pb *pendingBatch) {
	defer close(pb.done)
	defer pb.pin.Release()
	if b.onFlush != nil {
		b.onFlush(len(pb.sources))
	}
	p := pb.p
	if len(pb.sources) == 1 {
		p.Source, p.Sources = pb.sources[0], nil
		var res algorithms.Result
		res, pb.err = key.g.RunPinned(ctx, key.algo, pb.pin, p, nil)
		pb.res = algorithms.BatchResult{Sources: pb.sources, Values: [][]float64{res.Values}, Stats: res.Stats, Epoch: res.Epoch}
		return
	}
	p.Source, p.Sources = 0, pb.sources
	pb.res, pb.err = key.g.RunBatchPinned(ctx, key.algo, pb.pin, p, nil)
}

// batcherStats is the GET /stats view of the admission layer.
type batcherStats struct {
	Submitted int64 `json:"submitted"`
	Batches   int64 `json:"batches"`
	Coalesced int64 `json:"coalesced"`
}

func (b *batcher) stats() batcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return batcherStats{Submitted: b.submitted, Batches: b.batches, Coalesced: b.coalesced}
}
