package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/obsv"
	"verfploeter/internal/verfploeter"
)

// setupReps is how many times an internet-tier workload sets itself up;
// setup_s is the median, so one slow build does not move it.
const setupReps = 3

// minOps is the fewest timed operations a run makes even when one
// operation outlasts --seconds, so every median has a middle.
const minOps = 3

// runtimeAcc accumulates runtime.MemStats deltas around timed calls, and
// keeps the process CPU time of the last one.
type runtimeAcc struct {
	ops            int
	mallocs, bytes uint64
	gcs            uint32
	pauseNS        uint64
	cur            runtime.MemStats
	cpu0           float64
	// lastCPU is the process CPU seconds, user plus system, of the last
	// timed call.
	lastCPU float64
}

// start snapshots the counters before a timed call.
func (a *runtimeAcc) start() {
	runtime.ReadMemStats(&a.cur)
	a.cpu0 = processCPU()
}

// stop adds the delta since start as one operation.
func (a *runtimeAcc) stop() {
	a.lastCPU = processCPU() - a.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.ops++
	a.mallocs += m.Mallocs - a.cur.Mallocs
	a.bytes += m.TotalAlloc - a.cur.TotalAlloc
	a.gcs += m.NumGC - a.cur.NumGC
	a.pauseNS += m.PauseTotalNs - a.cur.PauseTotalNs
}

// report sets the runtime.* per-layer metrics, per operation.
func (a *runtimeAcc) report(r *report, what string) {
	n := float64(a.ops)
	r.set("runtime.allocs_per_op", ratio(float64(a.mallocs), n))
	r.set("runtime.alloc_mb_per_op", ratio(float64(a.bytes)/(1<<20), n))
	r.set("runtime.gc_cycles", ratio(float64(a.gcs), n))
	r.set("runtime.gc_pause_ms", ratio(float64(a.pauseNS)/1e6, n))
	r.printf("%-24s %.0f allocs/op, %.1f MB/op, %.2f GCs/op, %.3f ms GC pause/op (op = %s, n=%d)",
		"runtime", ratio(float64(a.mallocs), n), ratio(float64(a.bytes)/(1<<20), n),
		ratio(float64(a.gcs), n), ratio(float64(a.pauseNS)/1e6, n), what, a.ops)
}

// processCPU returns the user plus system CPU seconds the process has
// used, over all its threads.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// digest is a stable fingerprint of a catchment: SHA-256 over every
// mapped block in ascending order with its site and RTT, truncated to
// 16 hex digits.
func digest(c *verfploeter.Catchment) string {
	h := sha256.New()
	var b [14]byte
	for _, blk := range c.Blocks() {
		site, _ := c.SiteOf(blk)
		rtt, _ := c.RTTOf(blk)
		binary.BigEndian.PutUint32(b[0:], uint32(blk))
		binary.BigEndian.PutUint16(b[4:], uint16(site))
		binary.BigEndian.PutUint64(b[6:], uint64(rtt))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// counters reads obsv counters and histogram sums by name, so a phase
// can report the program's own counts as deltas.
type counters map[string]float64

var counterNames = []string{
	"probes_sent", "replies_total", "replies_kept", "blocks_mapped",
	"route_cache_hits", "route_cache_misses", "bgp_delta_computes", "assign_blocks_reused",
	"predict_hits", "predict_misses", "predict_skipped_strata",
}

var histNames = []string{"bgp_compute_seconds", "bgp_assign_seconds", "bgp_delta_seconds", "bgp_delta_cone_asns"}

func readCounters(reg *obsv.Registry) counters {
	c := counters{}
	if reg == nil {
		return c
	}
	for _, n := range counterNames {
		c[n] = float64(reg.Counter(n, "").Value())
	}
	for _, n := range histNames {
		h := reg.Histogram(n, "", nil)
		c[n+"_sum"] = h.Sum()
		c[n+"_count"] = float64(h.Count())
	}
	return c
}

// since returns the per-name difference c - base.
func (c counters) since(base counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// reportCounters sets the verfploeter and bgp counter metrics from a
// phase's counter deltas over ops operations, each ratio printed with
// its base.
func reportCounters(r *report, d counters, ops int) {
	n := float64(ops)
	r.set("verfploeter.probes_sent", ratio(d["probes_sent"], n))
	r.set("verfploeter.replies_total", ratio(d["replies_total"], n))
	r.set("verfploeter.kept_ratio", ratio(d["replies_kept"], d["replies_total"]))
	r.set("verfploeter.mapped_per_probe", ratio(d["blocks_mapped"], d["probes_sent"]))
	r.printf("%-24s %.0f probes/op; kept %.0f of %.0f replies; %.0f blocks mapped from %.0f probes",
		"verfploeter counters", ratio(d["probes_sent"], n), d["replies_kept"], d["replies_total"],
		d["blocks_mapped"], d["probes_sent"])
	lookups := d["route_cache_hits"] + d["route_cache_misses"]
	r.set("bgp.delta_s", ratio(d["bgp_delta_seconds_sum"], d["bgp_delta_seconds_count"]))
	r.set("bgp.delta_computes", d["bgp_delta_computes"])
	r.set("bgp.cone_asns", ratio(d["bgp_delta_cone_asns_sum"], d["bgp_delta_cone_asns_count"]))
	r.set("bgp.route_cache_hit_ratio", ratio(d["route_cache_hits"], lookups))
	r.set("bgp.assign_blocks_reused", d["assign_blocks_reused"])
	r.printf("%-24s %.0f delta computes (%.4f s mean, %.0f cone ASes mean); route cache %.0f hits of %.0f lookups; %.0f blocks reused",
		"bgp counters", d["bgp_delta_computes"], ratio(d["bgp_delta_seconds_sum"], d["bgp_delta_seconds_count"]),
		ratio(d["bgp_delta_cone_asns_sum"], d["bgp_delta_cone_asns_count"]),
		d["route_cache_hits"], lookups, d["assign_blocks_reused"])
}

// sweepLayer is one operation's verfploeter time from the program's
// obsv spans: the sweep calls it made, each the first chunk's start to
// the last chunk's end (wall) and the sum of chunk spans (busy), plus
// the fold spans.
type sweepLayer struct {
	wall, busy, fold float64
}

// sweepByOp groups the sweep and fold obsv spans by operation. A sweep
// call is the run of chunk spans that ends at its fold span.
func sweepByOp(spans []span) map[int]*sweepLayer {
	byOp := map[int][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.FromObsv && (s.Name == "sweep" || s.Name == "fold") {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	out := map[int]*sweepLayer{}
	for op, ss := range byOp {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start.Before(ss[j].Start) })
		l := &sweepLayer{}
		var first, last time.Time
		for _, s := range ss {
			if s.Name == "fold" {
				if !first.IsZero() {
					l.wall += last.Sub(first).Seconds()
				}
				first, last = time.Time{}, time.Time{}
				l.fold += s.Dur.Seconds()
				continue
			}
			l.busy += s.Dur.Seconds()
			if first.IsZero() {
				first = s.Start
			}
			if e := s.Start.Add(s.Dur); e.After(last) {
				last = e
			}
		}
		out[op] = l
	}
	return out
}

// reportSweepLayer sets the verfploeter span metrics as medians over the
// given operations.
func reportSweepLayer(r *report, byOp map[int]*sweepLayer, ops []int, workers int) {
	var wall, busy, fold, eff []float64
	for _, op := range ops {
		l := byOp[op]
		if l == nil {
			l = &sweepLayer{}
		}
		wall = append(wall, l.wall)
		busy = append(busy, l.busy)
		fold = append(fold, l.fold)
		eff = append(eff, ratio(l.busy, l.wall*float64(workers)))
	}
	r.set("verfploeter.sweep_wall_s", median(wall))
	r.set("verfploeter.sweep_busy_s", median(busy))
	r.set("verfploeter.fold_s", median(fold))
	r.set("verfploeter.parallel_eff", median(eff))
	r.printf("%-24s wall %.4f s, busy %.4f s over %d workers (efficiency %.3f), fold %.4f s (medians per op, n=%d)",
		"verfploeter spans", median(wall), median(busy), workers, median(eff), median(fold), len(ops))
}

// reportSelf sets self.<layer>_s: each layer's self time per operation,
// over the spans of the given operations. With only set, other layers
// are left alone.
func reportSelf(r *report, spans []span, ops []int, only ...string) {
	in := map[int]bool{}
	for _, op := range ops {
		in[op] = true
	}
	var sel []span
	for _, s := range spans {
		if in[s.Op] {
			sel = append(sel, s)
		}
	}
	self := selfByLayer(sel)
	layers := make([]string, 0, len(self))
	for l := range self {
		if len(only) == 0 || slices.Contains(only, l) {
			layers = append(layers, l)
		}
	}
	sort.Strings(layers)
	line := ""
	for _, l := range layers {
		v := ratio(self[l], float64(len(ops)))
		r.set("self."+l+"_s", v)
		line += " " + l + "=" + formatSeconds(v)
	}
	r.printf("%-24s%s (per op, n=%d)", "self time", line, len(ops))
}

func formatSeconds(v float64) string {
	return time.Duration(v * 1e9).Round(time.Microsecond).String()
}

// weightedAddrs returns n addresses in an order fixed by seed. Each is
// drawn from a block with probability proportional to its weight, and
// carries a seeded host octet.
func weightedAddrs(blocks []ipv4.Block, weights []float64, n int, seed uint64) []ipv4.Addr {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	sq := splitmix(seed)
	out := make([]ipv4.Addr, n)
	for i := range out {
		x := sq.next()
		u := float64(x>>11) / (1 << 53) * total
		j := sort.Search(len(cum), func(j int) bool { return cum[j] > u })
		out[i] = blocks[min(j, len(blocks)-1)].First() + ipv4.Addr(x&0xff)
	}
	return out
}

// splitmix is the splitmix64 generator, the benchmark's only source of
// seeded choices.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// seededPerm returns a permutation of 0..n-1 fixed by seed.
func seededPerm(n int, seed uint64) []int {
	sq := splitmix(seed)
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(sq.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
