package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestChunkedCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 63, 64, 1000} {
			var hits atomic.Int64
			counts := make([]atomic.Int32, n)
			Chunked(workers, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
					hits.Add(1)
				}
			})
			if int(hits.Load()) != n {
				t.Fatalf("workers=%d n=%d: %d hits", workers, n, hits.Load())
			}
			for i := range counts {
				if counts[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, counts[i].Load())
				}
			}
		}
	}
}

// TestChunkedWorkerOwnsScratch: the worker index is in range and never
// runs two chunks at once, so per-worker scratch needs no lock. Each
// worker appends to its own slice unsynchronized; the race detector
// and the owner flags would catch a shared index.
func TestChunkedWorkerOwnsScratch(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		const n = 5000
		busy := make([]atomic.Bool, workers)
		seen := make([][]int, workers)
		ChunkedWorker(workers, n, func(w, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("workers=%d: worker index %d", workers, w)
				return
			}
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("workers=%d: worker %d runs two chunks at once", workers, w)
			}
			for i := lo; i < hi; i++ {
				seen[w] = append(seen[w], i)
			}
			busy[w].Store(false)
		})
		total := 0
		for _, s := range seen {
			total += len(s)
		}
		if total != n {
			t.Fatalf("workers=%d: %d indices visited, want %d", workers, total, n)
		}
	}
}

func TestForEachDisjointWrites(t *testing.T) {
	const n = 10000
	out := make([]int, n)
	ForEach(8, n, func(i int) { out[i] = i * i })
	for i := range out {
		if out[i] != i*i {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

func TestShardsRunEachOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, nShards := range []int{0, 1, 3, 20} {
			counts := make([]atomic.Int32, nShards)
			Shards(workers, nShards, func(s int) { counts[s].Add(1) })
			for s := range counts {
				if counts[s].Load() != 1 {
					t.Fatalf("workers=%d nShards=%d: shard %d ran %d times", workers, nShards, s, counts[s].Load())
				}
			}
		}
	}
}

func TestWithWorkerRunsEveryWorker(t *testing.T) {
	const w = 5
	seen := make([]atomic.Int32, w)
	WithWorker(w, func(worker int) { seen[worker].Add(1) })
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("worker %d ran %d times", i, seen[i].Load())
		}
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not re-raised")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	ForEach(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}
