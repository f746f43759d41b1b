package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/verfploeter"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{1: 1, 50: 50, 90: 90, 99: 99, 99.9: 100, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSummarizeQuotesTailWithCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // reversed: summarize must sort
	}
	got := summarize(xs)
	if got.N != 1000 || got.Median != 499.5 || got.TailP != 99 || got.Tail != 989 {
		t.Errorf("summarize = %+v, want n=1000 median=499.5 p99=989", got)
	}
	if small := summarize([]float64{3, 1, 2}); small.TailP != 0 || small.Median != 2 {
		t.Errorf("summarize of 3 samples = %+v, want median 2 and no tail", small)
	}
}

func TestSelfTimeSubtractsUnionOfParallelChildren(t *testing.T) {
	parent := interval{0, 100}
	// Two sweep chunks running at once on two workers: their busy sum is
	// 80 but they cover only [10, 60), so the parent's self time is 50.
	chunks := []interval{{10, 50}, {20, 60}}
	if got := selfTime(parent, chunks); got != 50 {
		t.Errorf("selfTime over overlapping chunks = %d, want 50", got)
	}
	// A child running past the parent counts only inside it; touching
	// intervals merge.
	if got := selfTime(parent, []interval{{90, 120}, {0, 10}, {10, 20}}); got != 70 {
		t.Errorf("selfTime with clipped and touching children = %d, want 70", got)
	}
	if got := unionLen([]interval{{5, 6}, {0, 3}, {1, 2}}); got != 4 {
		t.Errorf("unionLen = %d, want 4", got)
	}
}

func TestSelfByLayer(t *testing.T) {
	t0 := clock0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Layer: "monitor", Start: at(0), Dur: 100 * time.Millisecond},
		{ID: 2, Parent: 1, Layer: "verfploeter", Start: at(10), Dur: 40 * time.Millisecond},
		{ID: 3, Parent: 1, Layer: "verfploeter", Start: at(20), Dur: 40 * time.Millisecond},
		{ID: 4, Parent: 2, Layer: "bgp", Start: at(15), Dur: 5 * time.Millisecond},
	}
	got := selfByLayer(spans)
	want := map[string]float64{"monitor": 0.050, "verfploeter": 0.075, "bgp": 0.005}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("self[%s] = %g, want %g", l, got[l], w)
		}
	}
}

func TestNestPicksInnermostWriterSpan(t *testing.T) {
	t0 := clock0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Op: 7, Lane: laneWriter, Name: "server.Tenant.Advance", Start: at(0), Dur: 100 * time.Millisecond},
		// A client request that happens to contain the epoch span must
		// not adopt it: the program's spans run on the writer side.
		{ID: 2, Op: 9, Lane: laneClient, Name: "http.GET drift", Start: at(5), Dur: 60 * time.Millisecond},
		{ID: 3, Lane: laneWriter, Name: "epoch", Start: at(10), Dur: 50 * time.Millisecond, FromObsv: true},
		{ID: 4, Lane: laneWriter, Name: "sweep", Start: at(20), Dur: 10 * time.Millisecond, FromObsv: true},
	}
	nest(spans)
	if spans[2].Parent != 1 || spans[2].Op != 7 {
		t.Errorf("epoch span: parent %d op %d, want parent 1 op 7", spans[2].Parent, spans[2].Op)
	}
	if spans[3].Parent != 3 || spans[3].Op != 7 {
		t.Errorf("sweep span: parent %d op %d, want parent 3 op 7", spans[3].Parent, spans[3].Op)
	}
}

func TestWriteChromeNestsEveryThread(t *testing.T) {
	t0 := clock0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Lane: laneWriter, Name: "round", Start: at(0), Dur: 100 * time.Millisecond},
		{ID: 2, Parent: 1, Lane: laneWriter, Name: "sweep", Start: at(10), Dur: 40 * time.Millisecond},
		{ID: 3, Parent: 1, Lane: laneWriter, Name: "sweep", Start: at(20), Dur: 40 * time.Millisecond},
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.Name+string(rune('0'+int(ev.Ts/1e4)))] = ev.Tid
		}
	}
	// The first chunk nests in the round's thread; the overlapping
	// second chunk cannot, so it gets a thread of its own.
	if tids["round0"] != tids["sweep1"] || tids["sweep2"] == tids["sweep1"] {
		t.Errorf("thread assignment %v: want round and first sweep together, second sweep apart", tids)
	}
}

func TestDigestIsStable(t *testing.T) {
	build := func(order []int, lastRTT time.Duration) *verfploeter.Catchment {
		c := verfploeter.NewCatchment(2)
		blocks := []ipv4.Block{0x0a0000, 0x0a0001, 0xc0a801}
		rtts := []time.Duration{time.Millisecond, 2 * time.Millisecond, lastRTT}
		for _, i := range order {
			c.SetRTT(blocks[i], i%2, rtts[i])
		}
		return c
	}
	a, b := build([]int{0, 1, 2}, 3*time.Millisecond), build([]int{2, 0, 1}, 3*time.Millisecond)
	if digest(a) != digest(b) {
		t.Errorf("digest depends on insertion order: %s vs %s", digest(a), digest(b))
	}
	// Pinned: a change to the digest's encoding would silently orphan
	// every pin in pins.go.
	if got, want := digest(a), "c968bfe39b688aea"; got != want {
		t.Errorf("digest = %s, want pinned %s", got, want)
	}
	if digest(build([]int{0, 1, 2}, 9*time.Millisecond)) == digest(a) {
		t.Error("digest ignores a changed RTT")
	}
}

func TestSeededChoicesRepeat(t *testing.T) {
	blocks := []ipv4.Block{1, 2, 3, 4, 5}
	weights := []float64{1, 0, 3, 0, 4}
	a, b := weightedAddrs(blocks, weights, 4000, 42), weightedAddrs(blocks, weights, 4000, 42)
	count := map[ipv4.Block]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weightedAddrs differs at %d for the same seed", i)
		}
		count[a[i].Block()]++
	}
	if count[2] != 0 || count[4] != 0 {
		t.Errorf("weightedAddrs drew zero-weight blocks: %v", count)
	}
	// Shares 1/8, 3/8 and 4/8 of 4000 draws, within a few percent.
	for blk, want := range map[ipv4.Block]int{1: 500, 3: 1500, 5: 2000} {
		if got := count[blk]; got < want*9/10 || got > want*11/10 {
			t.Errorf("block %d drawn %d times, want about %d", blk, got, want)
		}
	}
	p := seededPerm(8, 3)
	seen := map[int]bool{}
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("seededPerm(8, 3) = %v is not a permutation", p)
	}
}

func TestIdleMetrics(t *testing.T) {
	for w := range workloads {
		if _, ok := idleMetrics[w]; !ok {
			t.Errorf("workload %s has no idle-metric list", w)
		}
	}
	for _, tc := range []struct {
		workload, metric string
		want             bool
	}{
		{"sweep-internet", "monitor.step_s", true},
		{"sweep-internet", "bgp.delta_s", true},
		{"sweep-internet", "bgp.compute_s", false},
		{"monitor-internet", "bgp.delta_s", false},
		{"serve-medium", "server.advance_s", false},
		{"serve-medium", "monitorx.step_s", false},
	} {
		if got := isIdle(tc.workload, tc.metric); got != tc.want {
			t.Errorf("isIdle(%s, %s) = %v, want %v", tc.workload, tc.metric, got, tc.want)
		}
	}
}
