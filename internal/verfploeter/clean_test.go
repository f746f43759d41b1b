package verfploeter

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"verfploeter/internal/dataplane"
	"verfploeter/internal/faults"
	"verfploeter/internal/hitlist"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/topology"
)

// Clean is the sequential reference for the §4 cleaning pass: it walks
// raw replies in order and drops wrong round idents, late arrivals,
// sources never probed, and duplicates (the first reply per source
// wins). The fold (foldChunksSubset) must agree with it on every
// statistic.
func Clean(replies []reply, probed map[ipv4.Addr]bool, roundID uint16, cutoff time.Duration) ([]reply, CleanStats) {
	stats := CleanStats{Total: len(replies)}
	seen := make(map[ipv4.Addr]bool, len(replies))
	out := make([]reply, 0, len(replies))
	for _, r := range replies {
		switch {
		case r.Ident != roundID:
			stats.WrongRound++
		case r.At > cutoff:
			stats.Late++
		case !probed[r.Src]:
			stats.Unsolicited++
		case seen[r.Src]:
			stats.Duplicates++
		default:
			seen[r.Src] = true
			out = append(out, r)
		}
	}
	stats.Kept = len(out)
	return out, stats
}

// referenceFold is the sequential, address-keyed reference for the
// fold's catchment. It walks the chunks' replies in chunk order. Each
// source that survives Clean's filters maps to its first echo (a reply
// carrying the source's own sequence number on some retry attempt),
// with an RTT when the echo landed in the chunk that sent the probe; a
// source that only ever sent aliases (another target's sequence) maps
// site-only to its first one. Statistics come from Clean over the same
// stream.
func referenceFold(chunks []probeChunk, hl *hitlist.Hitlist, sub *ipv4.BlockSet, pos32 []uint32, sendNS []int64, retries, nSite int, roundID uint16, cutoff time.Duration) (*Catchment, CleanStats) {
	probed := make(map[ipv4.Addr]bool)
	idOf := make(map[ipv4.Addr]int)
	for id, e := range hl.Entries {
		if sub == nil || sub.Contains(e.Addr.Block()) {
			probed[e.Addr] = true
			idOf[e.Addr] = id
		}
	}
	type pick struct {
		site int
		rtt  time.Duration
		echo bool
	}
	best := make(map[ipv4.Addr]pick)
	var all []reply
	for ci := range chunks {
		for _, r := range chunks[ci].replies {
			all = append(all, r)
			if r.Ident != roundID || r.At > cutoff || !probed[r.Src] {
				continue
			}
			id := idOf[r.Src]
			echo := false
			for a := 0; a <= retries; a++ {
				echo = echo || r.Seq == uint16(pos32[id])+uint16(a)*retrySeqStride
			}
			if cur, ok := best[r.Src]; ok && (cur.echo || !echo) {
				continue
			}
			p := pick{site: int(r.Site), echo: echo}
			if t0 := sendNS[id]; echo && int(pos32[id])/probeChunkTargets == ci && t0 >= 0 && int64(r.At) > t0 {
				p.rtt = r.At - time.Duration(t0)
			}
			best[r.Src] = p
		}
	}
	_, stats := Clean(all, probed, roundID, cutoff)
	catch := NewCatchment(nSite)
	for src, p := range best {
		catch.SetRTT(src.Block(), p.site, p.rtt)
	}
	return catch, stats
}

// checkFoldMatchesClean runs the chunked engine and checks the fold of
// its own replies against the sequential reference, at one worker and
// several, and Run's catchment and statistics against the same
// reference. retries > 0 probes under a lossy fault profile so that
// retries are sent; subset leaves every third target out.
func checkFoldMatchesClean(t *testing.T, retries int, subset bool) {
	t.Helper()
	w := newSizedWorld(t, topology.SizeSmall, 5, dataplane.DefaultImpairments())
	cfg := w.config(2)
	if retries > 0 {
		w.net.SetFaults(faults.Profile{ProbeLoss: 0.2, ReplyLoss: 0.1, Seed: 3})
		cfg.Retries = retries
	}
	if subset {
		cfg.Subset = ipv4.NewBlockSet(w.hl.Len())
		for i, e := range w.hl.Entries {
			if i%3 != 0 {
				cfg.Subset.Add(e.Addr.Block())
			}
		}
	}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	var ref *Catchment
	var refStats CleanStats
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		rd, st, err := probe(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rd.chunks) < 2 {
			t.Fatalf("%d chunk: the reference must cross chunk boundaries", len(rd.chunks))
		}
		if retries > 0 && st.Retried == 0 {
			t.Fatal("lossy round sent no retries")
		}
		if ref == nil {
			ref, refStats = referenceFold(rd.chunks, w.hl, cfg.Subset, rd.pos32, rd.sendNS, cfg.Retries, cfg.NSite, cfg.RoundID, cfg.Cutoff)
		}
		catch, cs := foldChunksSubset(rd.chunks, w.hl, cfg.Subset, rd.pos32, rd.sendNS, cfg.Retries, cfg.NSite, cfg.RoundID, cfg.Cutoff, workers)
		if cs != refStats {
			t.Fatalf("workers=%d: fold stats %+v, reference %+v", workers, cs, refStats)
		}
		catchmentsEqual(t, "fold vs reference", ref, catch)
		run, rs, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Clean != refStats {
			t.Fatalf("workers=%d: Run stats %+v, reference %+v", workers, rs.Clean, refStats)
		}
		catchmentsEqual(t, "Run vs reference", ref, run)
	}
	if refStats.Kept == 0 || refStats.Duplicates == 0 || refStats.Unsolicited == 0 || refStats.Late == 0 {
		t.Fatalf("round not exercising the cleaning rules: %+v", refStats)
	}
	if ref.RTTCount() == 0 {
		t.Fatal("reference kept no RTTs")
	}
}

// TestBuildCatchmentMatchesClean: the fold of the engine's own replies
// under default impairments equals the sequential reference.
func TestBuildCatchmentMatchesClean(t *testing.T) {
	checkFoldMatchesClean(t, 0, false)
}

// TestRunWithExternalCollector: with loss-aware retries under a lossy
// fault profile, the replies the engine hands its sink, folded outside
// Run by the sequential reference, give Run's catchment and statistics.
func TestRunWithExternalCollector(t *testing.T) {
	checkFoldMatchesClean(t, 2, false)
}

// TestStreamBuilderMatchesBatch: on a target subset, the sharded fold
// and the sequential (batch) reference agree.
func TestStreamBuilderMatchesBatch(t *testing.T) {
	checkFoldMatchesClean(t, 0, true)
}

// foldFixture is a hand-built capture stream over the world's hitlist,
// split into two chunks, that exercises every cleaning rule and every
// kept-reply case. Target id sits at permutation position 2·id, sends at
// id ms, and echoes 5 ms later at site id%2, with these exceptions:
//
//   - every fifth target also sends a duplicate 1 s later at the other
//     site;
//   - target 2 first sends an alias (target 3's sequence) at site 1,
//     which its echo later replaces;
//   - target 6 only ever sends an alias, at site 1;
//   - the last target's echo is captured by the other chunk, which never
//     sent its probe, so it keeps no RTT;
//   - one wrong-round, one unsolicited and one late reply follow.
//
// Echoes carry their exact block hint; every other reply leaves it
// zero, so the fold resolves those through the index's search.
func foldFixture(t *testing.T, w *world) (chunks []probeChunk, pos32 []uint32, sendNS []int64) {
	t.Helper()
	n := w.hl.Len()
	if 2*(n-1) < probeChunkTargets {
		t.Fatalf("hitlist of %d targets fits one chunk", n)
	}
	chunks = make([]probeChunk, 2)
	pos32 = make([]uint32, n)
	sendNS = make([]int64, n)
	add := func(ci int, r reply) { chunks[ci].replies = append(chunks[ci].replies, r) }
	for id, e := range w.hl.Entries {
		pos32[id] = uint32(2 * id)
		sendNS[id] = int64(id) * int64(time.Millisecond)
		ci := 2 * id / probeChunkTargets
		at := time.Duration(sendNS[id]) + 5*time.Millisecond
		echo := reply{Site: int16(id % 2), At: at, Src: e.Addr, Blk: int32(id), Ident: 3, Seq: uint16(2 * id)}
		switch id {
		case 2:
			add(ci, reply{Site: 1, At: at - time.Millisecond, Src: e.Addr, Ident: 3, Seq: uint16(2 * 3)})
		case 6:
			add(ci, reply{Site: 1, At: at, Src: e.Addr, Ident: 3, Seq: uint16(2 * 7)})
			continue
		case n - 1:
			ci = 0
		}
		add(ci, echo)
		if id%5 == 0 {
			dup := echo
			dup.Site, dup.At = int16((id+1)%2), at+time.Second
			add(ci, dup)
		}
	}
	e0, e1 := w.hl.Entries[0].Addr, w.hl.Entries[1].Addr
	add(0, reply{Site: 0, At: time.Second, Src: e0, Ident: 99, Seq: 0})
	add(1, reply{Site: 1, At: time.Second, Src: ipv4.MustParseAddr("203.0.113.7"), Ident: 3, Seq: 0})
	add(0, reply{Site: 0, At: 20 * time.Minute, Src: e1, Ident: 3, Seq: 2})
	return chunks, pos32, sendNS
}

const (
	fixtureSites  = 2
	fixtureRound  = 3
	fixtureCutoff = 15 * time.Minute
)

// fixtureStats is the hand-computed outcome of the fixture stream with
// every target probed.
func fixtureStats(n int) CleanStats {
	dups := (n + 4) / 5
	return CleanStats{Total: n + dups + 4, WrongRound: 1, Late: 1, Unsolicited: 1, Duplicates: dups + 1, Kept: n}
}

// TestStreamBuilderCleaning folds the fixture stream on one shard and
// checks every cleaning rule's count and the kept replies' sites and
// RTTs.
func TestStreamBuilderCleaning(t *testing.T) {
	w := newWorld(t, 7, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	chunks, pos32, sendNS := foldFixture(t, w)
	n := w.hl.Len()
	want := fixtureStats(n)
	catch, stats := foldChunksSubset(chunks, w.hl, nil, pos32, sendNS, 0, fixtureSites, fixtureRound, fixtureCutoff, 1)
	if stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
	if catch.Len() != n {
		t.Fatalf("catchment has %d blocks, want %d", catch.Len(), n)
	}
	check := func(id, site int, rtt time.Duration) {
		t.Helper()
		b := w.hl.Entries[id].Addr.Block()
		if s, ok := catch.SiteOf(b); !ok || s != site {
			t.Errorf("target %d: site %d (mapped %v), want %d", id, s, ok, site)
		}
		if got, _ := catch.RTTOf(b); got != rtt {
			t.Errorf("target %d: RTT %v, want %v", id, got, rtt)
		}
	}
	check(0, 0, 5*time.Millisecond) // its duplicate at site 1 is dropped
	check(1, 1, 5*time.Millisecond) // plain echo
	check(2, 0, 5*time.Millisecond) // the echo replaces the earlier alias
	check(6, 1, 0)                  // alias only: site without RTT
	check(n-1, (n-1)%2, 0)          // echo outside the sending chunk
}

// TestStreamShardsMatchesStreamBuilder feeds the fixture stream through
// the fold at several shard counts and requires the sequential
// reference's catchment and statistics.
func TestStreamShardsMatchesStreamBuilder(t *testing.T) {
	w := newWorld(t, 7, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	chunks, pos32, sendNS := foldFixture(t, w)
	ref, refStats := referenceFold(chunks, w.hl, nil, pos32, sendNS, 0, fixtureSites, fixtureRound, fixtureCutoff)
	if want := fixtureStats(w.hl.Len()); refStats != want {
		t.Fatalf("reference stats %+v, want %+v", refStats, want)
	}
	for _, workers := range []int{1, 2, 7} {
		catch, stats := foldChunksSubset(chunks, w.hl, nil, pos32, sendNS, 0, fixtureSites, fixtureRound, fixtureCutoff, workers)
		if stats != refStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, refStats)
		}
		catchmentsEqual(t, "fold vs reference", ref, catch)
	}
}

// TestStreamShardsConcurrentProducers runs several sharded folds of the
// same fixture stream at once; each must equal the reference. Under
// -race this also checks that the fold only reads the shared chunks,
// hitlist and send columns.
func TestStreamShardsConcurrentProducers(t *testing.T) {
	w := newWorld(t, 7, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	chunks, pos32, sendNS := foldFixture(t, w)
	ref, refStats := referenceFold(chunks, w.hl, nil, pos32, sendNS, 0, fixtureSites, fixtureRound, fixtureCutoff)
	const folds = 8
	catches := make([]*Catchment, folds)
	stats := make([]CleanStats, folds)
	var wg sync.WaitGroup
	for g := 0; g < folds; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			catches[g], stats[g] = foldChunksSubset(chunks, w.hl, nil, pos32, sendNS, 0, fixtureSites, fixtureRound, fixtureCutoff, 2+g%4)
		}(g)
	}
	wg.Wait()
	for g := 0; g < folds; g++ {
		if stats[g] != refStats {
			t.Fatalf("fold %d: stats %+v, want %+v", g, stats[g], refStats)
		}
		catchmentsEqual(t, "concurrent fold vs reference", ref, catches[g])
	}
}

// TestStreamShardsDropRules pins the wrong-round, late and unsolicited
// drops under a subset that leaves target 4 out: its echo is then
// unsolicited — what a capture box that never probed the block would
// conclude — and its block stays unmapped.
func TestStreamShardsDropRules(t *testing.T) {
	w := newWorld(t, 7, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	chunks, pos32, sendNS := foldFixture(t, w)
	n := w.hl.Len()
	sub := ipv4.NewBlockSet(n)
	for id, e := range w.hl.Entries {
		if id != 4 {
			sub.Add(e.Addr.Block())
		}
	}
	ref, refStats := referenceFold(chunks, w.hl, sub, pos32, sendNS, 0, fixtureSites, fixtureRound, fixtureCutoff)
	want := fixtureStats(n)
	want.Unsolicited, want.Kept = 2, n-1
	if refStats != want {
		t.Fatalf("subset reference stats %+v, want %+v", refStats, want)
	}
	for _, workers := range []int{1, 7} {
		catch, stats := foldChunksSubset(chunks, w.hl, sub, pos32, sendNS, 0, fixtureSites, fixtureRound, fixtureCutoff, workers)
		if stats != want {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, want)
		}
		catchmentsEqual(t, "subset fold vs reference", ref, catch)
		if _, ok := catch.SiteOf(w.hl.Entries[4].Addr.Block()); ok {
			t.Errorf("workers=%d: target 4 outside the subset is mapped", workers)
		}
	}
}

// checkDuplicateBurst: the paper observes "systems replying multiple
// times to a single echo request, in some cases up to thousands of
// times" — a burst of n identical replies must fold to one kept reply
// and n-1 duplicates, keeping the first reply's site and RTT.
func checkDuplicateBurst(t *testing.T, n int, workers []int) {
	t.Helper()
	w := newWorld(t, 11, dataplane.Impairments{})
	src := w.hl.Entries[0].Addr
	chunk := probeChunk{}
	for i := 0; i < n; i++ {
		chunk.replies = append(chunk.replies, reply{Site: 1, At: time.Duration(i+1) * time.Millisecond, Src: src, Ident: 7})
	}
	pos32 := make([]uint32, w.hl.Len())
	sendNS := make([]int64, w.hl.Len())
	for _, wk := range workers {
		catch, stats := foldChunksSubset([]probeChunk{chunk}, w.hl, nil, pos32, sendNS, 0, 2, 7, time.Minute, wk)
		if stats != (CleanStats{Total: n, Duplicates: n - 1, Kept: 1}) {
			t.Errorf("workers=%d: stats %+v, want total %d, kept 1, dups %d", wk, stats, n, n-1)
		}
		if catch.Len() != 1 {
			t.Errorf("workers=%d: catchment has %d blocks, want 1", wk, catch.Len())
		}
		if site, ok := catch.SiteOf(src.Block()); !ok || site != 1 {
			t.Errorf("workers=%d: block mapped to %d (ok=%v), want site 1", wk, site, ok)
		}
		if rtt, _ := catch.RTTOf(src.Block()); rtt != time.Millisecond {
			t.Errorf("workers=%d: RTT %v, want the first reply's 1ms", wk, rtt)
		}
	}
}

// TestCentralKeepsRawBurst: every reply of a burst is counted, on one
// shard, before the duplicates are dropped.
func TestCentralKeepsRawBurst(t *testing.T) {
	checkDuplicateBurst(t, 20, []int{1})
}

// TestStreamShardsDuplicateBurst: the same burst folds identically for
// any shard count.
func TestStreamShardsDuplicateBurst(t *testing.T) {
	checkDuplicateBurst(t, 50, []int{1, 4, 7})
}

func TestCleanFilters(t *testing.T) {
	probed := map[ipv4.Addr]bool{
		ipv4.MustParseAddr("10.0.0.1"): true,
		ipv4.MustParseAddr("10.0.1.1"): true,
	}
	replies := []reply{
		{Site: 0, At: 1, Src: ipv4.MustParseAddr("10.0.0.1"), Ident: 7},   // keep
		{Site: 0, At: 2, Src: ipv4.MustParseAddr("10.0.0.1"), Ident: 7},   // dup
		{Site: 1, At: 3, Src: ipv4.MustParseAddr("10.0.1.1"), Ident: 8},   // wrong round
		{Site: 1, At: 999, Src: ipv4.MustParseAddr("10.0.1.1"), Ident: 7}, // late
		{Site: 1, At: 4, Src: ipv4.MustParseAddr("10.0.9.9"), Ident: 7},   // unsolicited
		{Site: 1, At: 5, Src: ipv4.MustParseAddr("10.0.1.1"), Ident: 7},   // keep
	}
	kept, st := Clean(replies, probed, 7, 100)
	if st.Total != 6 || st.Kept != 2 || st.Duplicates != 1 || st.WrongRound != 1 || st.Late != 1 || st.Unsolicited != 1 {
		t.Errorf("CleanStats = %+v", st)
	}
	if len(kept) != 2 || kept[0].Src != ipv4.MustParseAddr("10.0.0.1") {
		t.Errorf("kept = %+v", kept)
	}
}

func TestCleanOrderMattersForDuplicates(t *testing.T) {
	// The first reply wins; later duplicates from the same source are
	// dropped even if they arrived at a different site (a flip during
	// the round).
	probed := map[ipv4.Addr]bool{ipv4.MustParseAddr("10.0.0.1"): true}
	replies := []reply{
		{Site: 1, At: 1, Src: ipv4.MustParseAddr("10.0.0.1"), Ident: 1},
		{Site: 0, At: 2, Src: ipv4.MustParseAddr("10.0.0.1"), Ident: 1},
	}
	kept, _ := Clean(replies, probed, 1, 100)
	if len(kept) != 1 || kept[0].Site != 1 {
		t.Errorf("kept = %+v", kept)
	}
}

// TestRunHintFallback: the dense block hints that ride from send to fold
// only save lookups. A hitlist read from text with one block the
// topology lacks, sorted ahead of every topology block, shifts every
// hitlist id off the topology's block ids, so every send-side and
// fold-side hint misses and each lookup takes the binary search. The
// round must map, clean and count exactly as the built hitlist does,
// whose hints all hold — up to the one extra, unroutable target.
func TestRunHintFallback(t *testing.T) {
	w := newSizedWorld(t, topology.SizeSmall, 5, dataplane.DefaultImpairments())
	extra := ipv4.MustParseAddr("0.0.0.1")
	if w.top.BlockIndex(extra.Block()) >= 0 || extra.Block() >= w.top.Blocks[0].Block {
		t.Fatalf("%v must sort before the topology and lie outside it", extra)
	}
	var text bytes.Buffer
	fmt.Fprintf(&text, "50 %v\n", extra)
	if _, err := w.hl.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	shifted, err := hitlist.Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.Len() != w.hl.Len()+1 || shifted.Index().At(1) != w.top.Blocks[0].Block {
		t.Fatal("read hitlist is not the built one shifted by the extra block")
	}

	round := func(hl *hitlist.Hitlist) (*Catchment, Stats, dataplane.Stats) {
		cfg := w.config(7)
		cfg.Hitlist = hl
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		rd, st, err := probe(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		catch, cs := foldChunksSubset(rd.chunks, hl, nil, rd.pos32, rd.sendNS, 0, cfg.NSite, cfg.RoundID, cfg.Cutoff, cfg.Workers)
		st.Clean, st.MedianRTT, st.Responded = cs, catch.MedianRTT(), catch.Len()
		var net dataplane.Stats
		for c := range rd.chunks {
			net.Add(rd.chunks[c].netStats)
		}
		return catch, st, net
	}
	ref, refStats, refNet := round(w.hl)
	got, gotStats, gotNet := round(shifted)

	catchmentsEqual(t, "binary-search path vs hinted path", ref, got)
	if gotStats.Clean != refStats.Clean || gotStats.MedianRTT != refStats.MedianRTT ||
		gotStats.Responded != refStats.Responded || gotStats.SendErrs != refStats.SendErrs ||
		gotStats.Sent != refStats.Sent+1 || gotStats.Targets != refStats.Targets+1 {
		t.Errorf("stats %+v, hinted path %+v (plus one target)", gotStats, refStats)
	}
	if gotNet.ProbesSent != refNet.ProbesSent+1 || gotNet.UnknownBlocks != refNet.UnknownBlocks+1 {
		t.Errorf("the extra target was not sent and dropped as unroutable: %+v vs %+v", gotNet, refNet)
	}
	gotNet.ProbesSent, gotNet.UnknownBlocks = refNet.ProbesSent, refNet.UnknownBlocks
	if gotNet != refNet {
		t.Errorf("dataplane counters %+v, hinted path %+v", gotNet, refNet)
	}
	if refStats.Clean.Kept == 0 || refNet.Aliased == 0 || refNet.Duplicates == 0 {
		t.Fatalf("round not exercising replies, aliases and duplicates: %+v %+v", refStats.Clean, refNet)
	}
}
