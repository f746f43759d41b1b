// Package parallel provides the bounded worker pool behind the mapping
// pipeline's hot paths: the probe sweep and catchment build in
// internal/verfploeter, per-block assignment in internal/bgp, and
// multi-round campaigns in internal/experiments.
//
// Determinism is the design constraint. The paper's pipeline must produce
// identical catchments, assignments, and reports at workers=1 and
// workers=N, so this package never makes output depend on scheduling.
// Call sites guarantee that by construction, in one of three shapes:
//
//   - disjoint index writes: each item i writes only out[i] (assignment,
//     per-chunk probe sweeps);
//   - keyed sharding: state-carrying passes (duplicate suppression,
//     first-reply-wins catchment folding) partition their input by a key
//     (the /24 block) so all order-dependent interactions stay inside one
//     shard, which processes them in original input order;
//   - ordered merge: per-shard or per-chunk results are combined in shard
//     index order, or with a commutative reduction (counter sums).
//
// Under any of those, the worker count and the dynamic chunk schedule
// only change wall-clock time, never results.
//
// The fault-injection layer (internal/faults) leans on the same shapes:
// per-/24 rate-limit state lives on each probe chunk's dataplane fork,
// and every probe for a block — retries included — executes inside that
// block's constant-boundary chunk, so injected faults replay identically
// at any pool width.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean "one per
// available CPU" (GOMAXPROCS); anything else is returned unchanged.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Chunked splits [0, n) into contiguous chunks and runs fn(lo, hi) on up
// to workers goroutines, blocking until all chunks complete. Chunks are
// handed out dynamically for load balance; fn must therefore not care
// which goroutine runs which range (see the package comment for the
// determinism shapes that make this safe). workers <= 0 means one per
// CPU; with one worker fn runs inline as a single [0, n) chunk. A panic
// in any fn is re-raised on the calling goroutine.
func Chunked(workers, n int, fn func(lo, hi int)) {
	ChunkedWorker(workers, n, func(_, lo, hi int) { fn(lo, hi) })
}

// ChunkedWorker is Chunked that also tells fn which pool goroutine runs
// the chunk: worker is in [0, Workers(workers)), and no two chunks with
// the same worker run at once. Callers index per-worker scratch by it,
// so the scratch is allocated once per pool rather than once per chunk.
func ChunkedWorker(workers, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, 0, n)
		return
	}
	// ~4 chunks per worker: coarse enough to amortize scheduling, fine
	// enough that one slow chunk cannot idle the pool.
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	run(w, func(worker int) {
		for {
			hi := int(cursor.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= n {
				return
			}
			if hi > n {
				hi = n
			}
			fn(worker, lo, hi)
		}
	})
}

// ForEach runs fn(i) for every i in [0, n), chunked across up to workers
// goroutines, blocking until all complete. fn must write only state
// owned by item i; scheduling, inline execution at one worker, and panic
// propagation follow Chunked.
func ForEach(workers, n int, fn func(i int)) {
	Chunked(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Shards runs fn(shard) once for each shard in [0, nShards), one shard
// per pool slot. It is the keyed-sharding primitive: the caller routes
// every input item to a shard by a key (for the pipeline, the /24 block)
// and fn processes its shard's items in original input order, so all
// order-dependent state stays shard-local and results are independent of
// both worker count and shard count.
func Shards(workers, nShards int, fn func(shard int)) {
	if nShards <= 0 {
		return
	}
	w := Workers(workers)
	if w > nShards {
		w = nShards
	}
	if w <= 1 {
		for s := 0; s < nShards; s++ {
			fn(s)
		}
		return
	}
	var cursor atomic.Int64
	run(w, func(int) {
		for {
			s := int(cursor.Add(1)) - 1
			if s >= nShards {
				return
			}
			fn(s)
		}
	})
}

// WithWorker runs body(worker) on each of Workers(workers) goroutines and
// blocks until all return. Callers that need per-goroutine state (a
// scenario fork, a scratch buffer) index it by the worker id; work items
// are typically drawn from a shared atomic cursor inside body. With one
// worker, body(0) runs inline.
func WithWorker(workers int, body func(worker int)) {
	w := Workers(workers)
	if w <= 1 {
		body(0)
		return
	}
	run(w, body)
}

// run runs body on w goroutines — the caller's own and w-1 new ones —
// waits, and re-raises the first panic (by worker index) on the caller
// so a worker crash fails the calling test or request instead of
// killing the process.
func run(w int, body func(worker int)) {
	st := &runState{body: body}
	st.panics = st.slots[:]
	if w > len(st.slots) {
		st.panics = make([]any, w)
	}
	st.wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func(worker int) {
			defer st.wg.Done()
			st.work(worker)
		}(g)
	}
	st.work(0)
	st.wg.Wait()
	for _, p := range st.panics {
		if p != nil {
			panic(fmt.Sprintf("parallel: worker panic: %v", p))
		}
	}
}

// runState is what one run's workers share, in one allocation with
// inline panic slots for pools up to four wide: a route computation
// runs several parallel sections, and their bookkeeping counts against
// its allocs/op gate at every pool width.
type runState struct {
	wg     sync.WaitGroup
	body   func(worker int)
	panics []any
	slots  [4]any
}

// work runs body for one worker, recording a panic in its slot.
func (st *runState) work(worker int) {
	defer func() {
		if r := recover(); r != nil {
			st.panics[worker] = r
		}
	}()
	st.body(worker)
}
