package verfploeter

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"verfploeter/internal/colstore"
	"verfploeter/internal/dataplane"
	"verfploeter/internal/hitlist"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/obsv"
	"verfploeter/internal/parallel"
	"verfploeter/internal/rng"
	"verfploeter/internal/vclock"
)

// Config describes one measurement round (§3.1, §4.2):
//
//   - probes go to every hitlist target, in pseudorandom order, rate
//     limited "to prevent overloading networks or network equipment";
//   - they carry the round identifier in the ICMP Ident field so
//     overlapping rounds separate cleanly;
//   - replies are captured at every site and cleaned with the paper's
//     15-minute cutoff.
type Config struct {
	Hitlist *hitlist.Hitlist
	Net     *dataplane.Net
	NSite   int

	// OriginSite is where the prober runs; SourceAddr is the designated
	// measurement address inside the anycast prefix.
	OriginSite int
	SourceAddr ipv4.Addr

	// Rate is probes/second (paper: 6-10k q/s); Burst the token-bucket
	// depth. Zero values take defaults.
	Rate  float64
	Burst int

	// RoundID tags this measurement's probes.
	RoundID uint16

	// Cutoff discards replies arriving later than this after the round
	// starts (paper: 15 minutes).
	Cutoff time.Duration

	// Seed keys the pseudorandom probe order.
	Seed uint64

	// Workers bounds the parallel engine's pool: probe synthesis, the
	// chunked sweep, and the sharded catchment build. Zero means one
	// worker per CPU. The result is identical for every worker count —
	// chunk boundaries depend only on the hitlist size and merges happen
	// in chunk/shard order.
	Workers int

	// Subset restricts the sweep to the hitlist entries whose dense id
	// (entry index) is in the set, a Bitset over [0, Hitlist.Len()); nil
	// probes the full hitlist. Partial sweeps keep the full
	// sweep's probe permutation, chunk boundaries, and per-target sequence
	// numbers — excluded positions are skipped, never renumbered — so each
	// probed block draws exactly the coins (responsiveness, loss, alias,
	// duplicate) it would draw in a full sweep of the same round, and RTTs
	// are unchanged because the dataplane's delays depend on geography,
	// not send time. This is the contract that lets continuous monitoring
	// stitch partial re-probe results into a map byte-identical to an
	// always-full re-probe. An empty (non-nil) subset probes nothing.
	// A subset sweep costs what it probes: members find their positions
	// through the inverse permutation instead of a scan of all n.
	Subset *colstore.Bitset

	// Retries is the per-target retransmission budget for loss-aware
	// probing: after the initial sweep, targets that have not answered are
	// re-probed up to Retries times, with capped exponential backoff on
	// the virtual clock between passes. Each retry carries a fresh
	// sequence number, so the fault layer's loss coins are independent
	// draws and the reply fold's first-reply-wins dedup guarantees a
	// block is never counted twice. Zero (the default) disables retries
	// and leaves the probe stream byte-identical to earlier releases.
	Retries int

	// RetryBackoff is the wait before the first retry pass; it doubles
	// each pass, capped at RetryBackoffMax. Zero values take defaults.
	// The backoff must exceed the worst-case reply RTT, or in-flight
	// replies would be retried spuriously (the defaults leave ample
	// margin over the dataplane's geographic delays).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration

	// Obs, when set, receives the round's instrumentation: probe/reply/
	// fault counters and (with tracing enabled) per-chunk sweep spans and
	// a fold span. Publication happens once per Run from totals the round
	// already accumulated — never per probe — so a nil registry (the
	// default) costs nothing and the measured output is byte-identical
	// either way. See internal/obsv.
	Obs *obsv.Registry
}

// Stats summarizes one round.
type Stats struct {
	Sent     int
	SendErrs int
	Elapsed  time.Duration // virtual time the probing took
	Clean    CleanStats
	// MedianRTT is the median probe round-trip time over kept replies;
	// the paper (§7) suggests these RTTs can drive site placement.
	MedianRTT time.Duration

	// Targets is the number of hitlist targets probed; Responded the
	// number of blocks that made it into the catchment. Their ratio is
	// the sweep-level response rate — the coverage signal downstream
	// analyses use to qualify catchment fractions under loss.
	Targets   int
	Responded int
	// Retried counts retransmitted probes (0 unless Config.Retries > 0).
	Retried int
}

// ResponseRate is the fraction of probed targets that answered, in
// [0,1]. The paper sees ~55% on the real Internet; the synthetic
// dataplane reproduces that via responsiveness scores, and the fault
// layer (internal/faults) pushes it lower still. 0 when nothing was
// probed — never NaN.
func (s Stats) ResponseRate() float64 {
	if s.Targets == 0 {
		return 0
	}
	return float64(s.Responded) / float64(s.Targets)
}

// Default tuning.
const (
	DefaultRate            = 10000.0
	DefaultBurst           = 64
	DefaultCutoff          = 15 * time.Minute
	DefaultRetryBackoff    = time.Second
	DefaultRetryBackoffMax = 8 * time.Second
)

// retrySeqStride separates the sequence-number space of each retry
// attempt: attempt a probes permutation position i with sequence
// uint16(i) + a*retrySeqStride. Attempt 0 is the plain position, so the
// initial sweep's wire format is untouched; the stride is odd, so
// consecutive attempts never collide within a chunk.
const retrySeqStride = 0x9e37

// probeChunkTargets fixes the granularity of the chunked probe sweep:
// each chunk of the probe permutation runs as an independent
// single-threaded simulation on a dataplane fork. The size is a constant
// — never derived from the worker count — because chunk boundaries and
// the chunk-ordered merge are what make Run's output byte-identical at
// workers=1 and workers=N.
const probeChunkTargets = 4096

// ErrConfig reports invalid measurement configuration.
var ErrConfig = errors.New("verfploeter: bad config")

func (cfg *Config) fill() error {
	if cfg.Hitlist == nil || cfg.Hitlist.Len() == 0 {
		return fmt.Errorf("%w: empty hitlist", ErrConfig)
	}
	if cfg.Net == nil {
		return fmt.Errorf("%w: need Net", ErrConfig)
	}
	if cfg.NSite <= 0 {
		return fmt.Errorf("%w: NSite must be positive", ErrConfig)
	}
	if cfg.OriginSite < 0 || cfg.OriginSite >= cfg.NSite {
		return fmt.Errorf("%w: origin site %d of %d", ErrConfig, cfg.OriginSite, cfg.NSite)
	}
	if cfg.Rate <= 0 {
		cfg.Rate = DefaultRate
	}
	if cfg.Burst <= 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.Cutoff <= 0 {
		cfg.Cutoff = DefaultCutoff
	}
	if cfg.Subset != nil && cfg.Subset.Size() != cfg.Hitlist.Len() {
		return fmt.Errorf("%w: subset over %d ids, hitlist has %d", ErrConfig, cfg.Subset.Size(), cfg.Hitlist.Len())
	}
	if cfg.Retries < 0 {
		return fmt.Errorf("%w: negative Retries", ErrConfig)
	}
	if cfg.Retries > 0 {
		if cfg.RetryBackoff <= 0 {
			cfg.RetryBackoff = DefaultRetryBackoff
		}
		if cfg.RetryBackoffMax < cfg.RetryBackoff {
			cfg.RetryBackoffMax = DefaultRetryBackoffMax
		}
		if cfg.RetryBackoffMax < cfg.RetryBackoff {
			cfg.RetryBackoffMax = cfg.RetryBackoff
		}
	}
	return nil
}

// Run performs one full measurement round: probe, capture, clean, map.
// It returns the catchment of every responsive block.
//
// The round executes on the parallel engine: the sweep runs as
// fixed-size chunks of the probe permutation — each chunk sends its
// probes on its own dataplane fork and virtual clock, offset to the time
// the rate limiter would reach that chunk — and replies are cleaned and
// folded by /24-block shards. Every stage merges deterministically, so
// the catchment and stats are identical for any Workers value.
func Run(cfg Config) (*Catchment, Stats, error) {
	if err := cfg.fill(); err != nil {
		return nil, Stats{}, err
	}
	rd, stats, err := probe(&cfg)
	if err != nil {
		return nil, stats, err
	}

	foldSpan := cfg.Obs.StartSpan("fold", 0)
	catch, cstats := foldChunksSubset(rd.chunks, cfg.Hitlist, cfg.Subset, rd.pos32, rd.sendNS, cfg.Retries, cfg.NSite, cfg.RoundID, cfg.Cutoff, cfg.Workers)
	foldSpan.End()
	stats.Clean = cstats
	stats.MedianRTT = catch.MedianRTT()
	stats.Responded = catch.Len()
	var net dataplane.Stats
	for c := range rd.chunks {
		net.Add(rd.chunks[c].netStats)
	}
	publishRound(cfg.Obs, stats, net)
	return catch, stats, nil
}

// round is a finished sweep's input to the fold: every chunk's captured
// replies plus the columnar send state, indexed by the hitlist's dense
// block id (entry order == ascending block order == columnar id). pos32
// maps id → full-permutation position (the base of sequence-number
// arithmetic; noPos for ids outside a subset sweep); sendNS maps id →
// last probe send time in ns (-1 = never probed). posBits, set only for
// subset sweeps, marks the positions whose target is a member.
type round struct {
	chunks  []probeChunk
	pos32   []uint32
	sendNS  []int64
	posBits []uint64
}

// noPos is pos32's entry for an id a subset sweep leaves out: it lies
// past every chunk, so retryMissing and sentAtNS treat the id as
// unprobed.
const noPos = ^uint32(0)

// probe runs the chunked sweep of a filled config and returns its
// replies and probe statistics (Clean, MedianRTT and Responded are left
// to the fold).
func probe(cfg *Config) (*round, Stats, error) {
	n := cfg.Hitlist.Len()
	perm := rng.NewPermutation(rng.New(cfg.Seed).Derive("probe-order"), n)

	// Chunks probe disjoint permutation positions, hence disjoint ids,
	// so they write sendNS without locks or merges. The same holds for
	// building pos32: a position range scatters into disjoint ids.
	rd := &round{pos32: make([]uint32, n), sendNS: make([]int64, n)}
	if cfg.Subset == nil {
		parallel.Chunked(cfg.Workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rd.pos32[perm.Index(i)] = uint32(i)
				rd.sendNS[i] = -1
			}
		})
	} else {
		rd.placeSubset(cfg.Workers, perm, cfg.Subset)
	}

	// Chunked sweep: chunk c probes permutation positions [lo, hi) on a
	// fork of the data plane whose clock starts at the virtual time the
	// round's rate limiter would reach position lo, so capture
	// timestamps line up with one continuous paced sweep. Replies land
	// in the fork's reply sink in send order and are stable-sorted by
	// arrival time afterwards, so replies arriving at the same instant
	// keep their send order.
	nChunks := (n + probeChunkTargets - 1) / probeChunkTargets
	rd.chunks = make([]probeChunk, nChunks)
	parallel.ForEach(cfg.Workers, nChunks, func(c int) {
		lo := c * probeChunkTargets
		hi := lo + probeChunkTargets
		if hi > n {
			hi = n
		}
		ch := &rd.chunks[c]
		span := cfg.Obs.StartSpan("sweep", c)
		clock := vclock.New()
		clock.Advance(chunkOffset(lo, cfg.Rate))
		vStart := clock.Now()
		net := cfg.Net.Fork()
		net.SetReplySink(func(site int, from ipv4.Addr, blk int, ident, seq uint16, at time.Duration) {
			if at > ch.maxAt {
				ch.maxAt = at
			}
			ch.replies = append(ch.replies, reply{At: at, Src: from, Blk: int32(blk), Site: int16(site), Ident: ident, Seq: seq})
		})
		sp := rd.span(lo, hi)
		ch.stats.Targets = sp.count()
		ch.replies = make([]reply, 0, sp.count())
		ch.err = sweep(net, clock, cfg, perm, sp, rd.sendNS, &ch.stats)
		if ch.err == nil && cfg.Retries > 0 {
			ch.err = retryMissing(net, clock, cfg, perm, sp, ch, rd.pos32, rd.sendNS)
		}
		// Drain the schedule; the sink already holds every reply
		// (including deliberately late ones — the cleaner applies the
		// cutoff on capture timestamps), so only pacing events remain.
		clock.RunUntilIdle()
		slices.SortStableFunc(ch.replies, func(a, b reply) int { return cmp.Compare(a.At, b.At) })
		ch.end = clock.Now()
		if ch.maxAt > ch.end {
			ch.end = ch.maxAt
		}
		ch.netStats = net.Stats()
		span.Virtual(vStart, ch.end).End()
	})

	var stats Stats
	var firstErr error
	for c := range rd.chunks {
		ch := &rd.chunks[c]
		stats.Targets += ch.stats.Targets
		stats.Sent += ch.stats.Sent
		stats.SendErrs += ch.stats.SendErrs
		stats.Retried += ch.stats.Retried
		if firstErr == nil {
			firstErr = ch.err
		}
		if ch.end > stats.Elapsed {
			stats.Elapsed = ch.end
		}
	}
	return rd, stats, firstErr
}

// chunkOffset is the virtual time one continuous paced sweep takes to
// reach permutation position lo: a single rounding of lo·1e9/rate, never
// a truncated per-token interval multiplied up (which drifts at rates
// that do not divide a second — the same bug class the RateLimiter's
// integer ledger fixes).
func chunkOffset(lo int, rate float64) time.Duration {
	return time.Duration(float64(lo) * float64(time.Second) / rate)
}

// retryMissing is the loss-aware retransmission pass for one chunk: it
// waits out the backoff on the chunk's virtual clock (letting in-flight
// replies land), re-probes every target in [lo, hi) that has not yet
// answered, and repeats with doubled backoff up to the retry budget.
// Each attempt sends a fresh sequence number, so the fault layer's loss
// coins are independent draws; recovered replies overwrite the target's
// send time so their RTTs measure the retransmission, not the lost
// original. Targets whose replies are aliased to another source keep
// being retried — exactly what a real prober, blind to the alias, would
// do. The retry pass runs entirely inside the chunk's fork, so output
// stays byte-identical at any worker count.
func retryMissing(net *dataplane.Net, clock *vclock.Clock, cfg *Config,
	perm *rng.Permutation, sp chunkSpan, ch *probeChunk, pos32 []uint32, sendNS []int64) error {

	ix := cfg.Hitlist.Index()
	backoff := cfg.RetryBackoff
	answered := make([]bool, sp.hi-sp.lo)
	for attempt := 1; attempt <= cfg.Retries; attempt++ {
		clock.Advance(backoff)
		// The sink records replies at send time, stamped with their
		// arrival time; "answered so far" means arrived by now. A reply
		// whose source is a hitlist address marks that address's own
		// permutation position — which lives in this chunk unless the
		// reply was cross-block aliased, in which case it cannot match
		// any of this chunk's targets anyway. An id outside a subset
		// sweep holds noPos, which lies in no chunk.
		now := clock.Now()
		for i := range answered {
			answered[i] = false
		}
		for _, r := range ch.replies {
			if r.At > now {
				continue
			}
			id := hitlistID(ix, r.Src.Block(), r.Blk)
			if id < 0 || cfg.Hitlist.Entries[id].Addr != r.Src {
				continue
			}
			if p := int(pos32[id]); p >= sp.lo && p < sp.hi {
				answered[p-sp.lo] = true
			}
		}
		missing := make([]int, 0, 64)
		for k := 0; k < sp.count(); k++ {
			i := sp.pos(k)
			if !answered[i-sp.lo] {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		seqOff := uint16(attempt) * retrySeqStride
		err := pacedSend(net, clock, cfg, len(missing), func(k int) (int, ipv4.Addr, uint16) {
			i := missing[k]
			id := perm.Index(i)
			return id, cfg.Hitlist.Entries[id].Addr, uint16(i) + seqOff
		}, sendNS, &ch.stats)
		ch.stats.Retried += len(missing)
		if err != nil {
			return err
		}
		backoff *= 2
		if backoff > cfg.RetryBackoffMax {
			backoff = cfg.RetryBackoffMax
		}
	}
	return nil
}

// reply is one captured echo reply, tagged with the site that captured it
// and the virtual capture time — the tuple the fold consumes. Blk is the
// index of the source's block in the dataplane's topology; for a
// hitlist built from that topology it is also the source's hitlist id,
// which hitlistID verifies before trusting. The fields are ordered so a
// reply packs into 24 bytes.
type reply struct {
	At    time.Duration
	Src   ipv4.Addr
	Blk   int32
	Site  int16
	Ident uint16
	Seq   uint16
}

// hitlistID returns the dense hitlist id of block b, trusting hint when
// the index holds b at that id — one compare, where Of is a binary
// search over the whole hitlist.
func hitlistID(ix *colstore.Index, b ipv4.Block, hint int32) int {
	if h := int(hint); uint(h) < uint(ix.Len()) && ix.At(h) == b {
		return h
	}
	return ix.Of(b)
}

// probeChunk is one chunk's slice of the round: its captured replies
// (sink-collected in send order, stable-sorted by arrival time once the
// chunk drains), sweep stats, and final (absolute) clock value.
type probeChunk struct {
	replies []reply
	maxAt   time.Duration
	stats   Stats
	// netStats snapshots the chunk fork's dataplane counters after the
	// sweep drains, so Run can publish fault totals without touching the
	// per-packet path.
	netStats dataplane.Stats
	end      time.Duration
	err      error
}

// chunkSpan is one chunk's slice of the probe permutation: the dense
// position range [lo, hi), optionally filtered (incl != nil) to the
// positions whose target is in Config.Subset. Positions, not ranks,
// flow into sequence numbers, so a filtered span probes with the exact
// wire identity of the full sweep.
type chunkSpan struct {
	lo, hi int
	incl   []int
}

func (sp chunkSpan) count() int {
	if sp.incl != nil {
		return len(sp.incl)
	}
	return sp.hi - sp.lo
}

func (sp chunkSpan) pos(k int) int {
	if sp.incl != nil {
		return sp.incl[k]
	}
	return sp.lo + k
}

// placeSubset places only a subset sweep's members on the probe
// permutation: each member id takes its position from the inverse
// permutation, and that position's bit is set in posBits. Non-members
// hold noPos. The Feistel work is O(|subset|), not O(n).
func (rd *round) placeSubset(workers int, perm *rng.Permutation, sub *colstore.Bitset) {
	parallel.Chunked(workers, len(rd.pos32), func(lo, hi int) {
		for id := lo; id < hi; id++ {
			rd.sendNS[id] = -1
			rd.pos32[id] = noPos
			if sub.Contains(id) {
				rd.pos32[id] = uint32(perm.Inverse(id))
			}
		}
	})
	// Members scatter across positions, so the bitmap is filled in one
	// sequential pass rather than with contended atomic writes.
	rd.posBits = make([]uint64, (len(rd.pos32)+63)/64)
	sub.Range(func(id int) bool {
		p := rd.pos32[id]
		rd.posBits[p>>6] |= 1 << (p & 63)
		return true
	})
}

// span materializes the chunk's probe positions: all of [lo, hi) for a
// full sweep, else the member positions read off posBits in ascending
// order (lo is a multiple of probeChunkTargets, hence word-aligned).
func (rd *round) span(lo, hi int) chunkSpan {
	sp := chunkSpan{lo: lo, hi: hi}
	if rd.posBits == nil {
		return sp
	}
	words := rd.posBits[lo>>6 : (hi+63)>>6]
	count := 0
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	sp.incl = make([]int, 0, count)
	for k, w := range words {
		for ; w != 0; w &= w - 1 {
			sp.incl = append(sp.incl, lo+k<<6+bits.TrailingZeros64(w))
		}
	}
	return sp
}

// sweep sends probes for the chunk's permutation span onto the virtual
// clock, paced by a token bucket.
func sweep(net *dataplane.Net, clock *vclock.Clock, cfg *Config,
	perm *rng.Permutation, sp chunkSpan,
	sendNS []int64, stats *Stats) error {

	return pacedSend(net, clock, cfg, sp.count(), func(k int) (int, ipv4.Addr, uint16) {
		i := sp.pos(k)
		id := perm.Index(i)
		return id, cfg.Hitlist.Entries[id].Addr, uint16(i)
	}, sendNS, stats)
}

// pacedSend is the shared send loop under the initial sweep and the
// retry passes: it emits count probes — dense hitlist id, target
// address, and ICMP sequence supplied by tgt — paced by a token bucket
// on the virtual clock, records each send time in the sendNS column, and
// returns the first send error.
//
// Replies reach the sink at send time, so the chunk's forked clock
// carries no events and pacing is plain arithmetic: the inner loop steps
// to each instant the token bucket next admits a probe, the outer loop
// advances in coarse Delay()+1ms strides. The strides fix the chunk's
// final clock time, which Stats.Elapsed reports and datasets persist.
// Each stride's probes, stamped with their own send instants, go to the
// dataplane as one burst. The hitlist id rides along as the probe's
// block hint, which the dataplane verifies against its topology.
func pacedSend(net *dataplane.Net, clock *vclock.Clock, cfg *Config,
	count int, tgt func(k int) (int, ipv4.Addr, uint16),
	sendNS []int64, stats *Stats) error {

	rl := vclock.NewRateLimiter(clock, cfg.Rate, cfg.Burst)
	var firstErr error
	burst := make([]dataplane.Probe, 0, cfg.Burst)
	k := 0
	admit := func() {
		now := clock.Now()
		for k < count && rl.Allow() {
			id, addr, seq := tgt(k)
			sendNS[id] = int64(now)
			burst = append(burst, dataplane.Probe{Dst: addr, Seq: seq, Hint: int32(id), At: now})
			k++
		}
	}
	flush := func() {
		if err := net.SendBurst(cfg.OriginSite, cfg.SourceAddr, cfg.RoundID, burst); err != nil {
			stats.SendErrs += len(burst)
			if firstErr == nil {
				firstErr = err
			}
		}
		stats.Sent += len(burst)
		burst = burst[:0]
	}
	admit()
	flush()
	if k < count {
		stepAt := clock.Now() + rl.Delay()
		for k < count {
			target := clock.Now() + rl.Delay() + time.Millisecond
			for k < count && stepAt <= target {
				clock.Advance(stepAt - clock.Now())
				admit()
				if k < count {
					stepAt = clock.Now() + rl.Delay()
				}
			}
			flush()
			clock.Advance(target - clock.Now())
		}
	}
	return firstErr
}

// CleanStats accounts for the paper's data-cleaning pass (§4): about 2%
// of replies are duplicates, some replies come from addresses that were
// never probed, and replies after the cutoff are dropped.
type CleanStats struct {
	Total       int
	WrongRound  int
	Late        int
	Unsolicited int
	Duplicates  int
	Kept        int
}

func (s *CleanStats) add(o CleanStats) {
	s.Total += o.Total
	s.WrongRound += o.WrongRound
	s.Late += o.Late
	s.Unsolicited += o.Unsolicited
	s.Duplicates += o.Duplicates
	s.Kept += o.Kept
}

// isEchoID reports whether a reply from the hitlist address with dense
// id is that address's own echo: its sequence number matches the
// address's full-permutation position on some retry attempt.
func isEchoID(pos32 []uint32, id int, retries int, seq uint16) bool {
	d := seq - uint16(pos32[id])
	for a := 0; a <= retries; a++ {
		if d == uint16(a)*retrySeqStride {
			return true
		}
	}
	return false
}

// sentAtNS returns the send time (ns) of the probe whose reply landed in
// chunk ci for hitlist id, or -1 when no such send is visible from that
// chunk. Visibility is chunk-scoped on purpose: a chunk's capture box
// only knows its own sends, so a reply whose sequence coincidentally
// matches a target probed by a different chunk must not pick up that
// chunk's send time. (id's probes all happen in the chunk that owns its
// permutation position; subset-excluded ids are never sent, so their
// sendNS stays -1.)
func sentAtNS(sendNS []int64, pos32 []uint32, id, ci int) int64 {
	if int(pos32[id])/probeChunkTargets != ci {
		return -1
	}
	return sendNS[id]
}

// foldChunksSubset applies the §4 cleaning rules to the chunks' replies
// and folds the survivors into one catchment by /24-block shards. Each
// reply is dropped as wrong-round (another round's ident), late (past
// the cutoff), unsolicited (not a probed hitlist address), or duplicate
// (its source already kept a reply); the rest are kept. All
// order-dependent state — duplicate suppression and the kept reply per
// source — is keyed by the source's block, so sharding by that block
// keeps every interaction inside one shard, which walks the chunks in
// chunk order. The shard count therefore cannot change the result; it
// only sets parallel width.
//
// The probed set is filtered to the sweep's target subset, so a
// cross-block aliased reply from an unprobed block counts as unsolicited
// — exactly what a capture box that never probed the block would
// conclude.
//
// The winner for each source is its first sequence-matched echo, and
// only echoes carry an RTT. Aliased replies
// (sequence from some other target's probe) win only when no echo ever
// arrives, and then site-only. This makes the per-block result a
// function of the round's reply *set* rather than its arrival order:
// whether an alias lands before or after the echo — which depends on
// send-time gaps that differ between a full sweep and a compact subset
// sweep — no longer changes the kept site or RTT.
//
// The fold is columnar and barrier-free: every shard writes its blocks'
// rows directly into one shared indexed catchment (shards own disjoint
// ids because they shard by block), so there is no per-shard fragment
// map and no merge pass — only a counter recount and a shard-ordered
// stats sum after the parallel region.
func foldChunksSubset(chunks []probeChunk, hl *hitlist.Hitlist, sub *colstore.Bitset, pos32 []uint32, sendNS []int64, retries int, nSite int, roundID uint16, cutoff time.Duration, workers int) (*Catchment, CleanStats) {
	ix := hl.Index()
	catch := NewIndexedCatchment(nSite, ix)
	catch.ensureRTTs()
	// seen tracks the kept reply's class per source: keptAlias entries
	// are upgraded in place when the source's echo arrives.
	const (
		unseen = iota
		keptAlias
		keptEcho
	)
	seen := make([]uint8, ix.Len())
	nShards := parallel.Workers(workers)
	stats := make([]CleanStats, nShards)
	parallel.Shards(workers, nShards, func(shard int) {
		st := &stats[shard]
		for ci := range chunks {
			for _, r := range chunks[ci].replies {
				b := r.Src.Block()
				if int(uint32(b)%uint32(nShards)) != shard {
					continue
				}
				st.Total++
				// The source was probed iff it is its block's hitlist
				// representative (and inside the subset, if any).
				id := hitlistID(ix, b, r.Blk)
				probed := id >= 0 && hl.Entries[id].Addr == r.Src &&
					(sub == nil || sub.Contains(id))
				switch {
				case r.Ident != roundID:
					st.WrongRound++
				case r.At > cutoff:
					st.Late++
				case !probed:
					st.Unsolicited++
				case seen[id] == unseen:
					st.Kept++
					if isEchoID(pos32, id, retries, r.Seq) {
						seen[id] = keptEcho
						if t0 := sentAtNS(sendNS, pos32, id, ci); t0 >= 0 && int64(r.At) > t0 {
							catch.storeID(id, r.Site, int64(r.At)-t0)
						} else {
							catch.storeID(id, r.Site, 0)
						}
					} else {
						seen[id] = keptAlias
						catch.storeID(id, r.Site, 0)
					}
				default:
					st.Duplicates++
					if seen[id] == keptAlias && isEchoID(pos32, id, retries, r.Seq) {
						seen[id] = keptEcho
						var rtt int64
						if t0 := sentAtNS(sendNS, pos32, id, ci); t0 >= 0 && int64(r.At) > t0 {
							rtt = int64(r.At) - t0
						}
						catch.storeID(id, r.Site, rtt)
					}
				}
			}
		}
	})
	catch.recount()
	cs := stats[0]
	for shard := 1; shard < nShards; shard++ {
		cs.add(stats[shard])
	}
	return catch, cs
}
