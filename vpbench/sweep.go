package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"verfploeter/internal/dataset"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/parallel"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// sweep-internet: the paper's own operation. Every round probes the full
// internet-tier hitlist (~1.24M targets) from b-root and streams the map
// to a v4 dataset. The scenario seed is fixed so that every --seed does
// the same amount of work; the seed orders the rounds' RoundIDs, which
// changes the probe permutation and every per-probe coin.
const sweepScenarioSeed = 1

// sweepRoundIDs are the RoundIDs the rounds cycle through.
var sweepRoundIDs = []uint16{1, 2, 3, 4, 5, 6, 7, 8}

type sweeper struct {
	s     *scenario.Scenario
	order []int
	round int
	buf   bytes.Buffer
}

// sweepPhase is what one phase of rounds measured.
type sweepPhase struct {
	ops    []int
	walls  []float64 // Measure through v4 Close
	writes []float64 // NewStreamWriter through Close
	bytes  []float64
	blocks []float64
	probes []float64
	cpu    []float64 // process CPU seconds per round
	rt     runtimeAcc
}

func runSweep(o options, r *report) error {
	in := newInstruments(o.trace)
	defer in.close()

	var s *scenario.Scenario
	var builds []float64
	for i := 0; i < setupReps; i++ {
		s = nil
		debug.FreeOSMemory() // drop the previous set-up before timing the next
		sp := in.tr.begin(laneWriter, "scenario", "scenario.BRoot", -1-i, 0)
		t0 := time.Now()
		s = scenario.BRoot(topology.SizeInternet, sweepScenarioSeed)
		builds = append(builds, time.Since(t0).Seconds())
		sp.end()
	}
	r.set("setup_s", median(builds))
	r.timing("setup_s", "s", 1, builds)
	r.printf("%-24s %d targets, %d workers", "scenario", s.Hitlist.Len(), parallel.Workers(s.Workers))
	setupCounters := readCounters(in.reg)

	sw := &sweeper{s: s, order: seededPerm(len(sweepRoundIDs), o.seed)}
	if !o.trace {
		ph, err := sw.phase(o.seconds, nil, r)
		if err != nil {
			return err
		}
		ph.reportE2E(r)
		return nil
	}

	in.hookBGP(false)
	untraced, err := sw.phase(o.seconds/2, nil, r)
	if err != nil {
		return err
	}
	in.hookBGP(true)
	s.Obs = in.reg
	base := readCounters(in.reg)
	traced, err := sw.phase(o.seconds/2, in.tr, r)
	if err != nil {
		return err
	}
	r.printf("-- untraced phase")
	untraced.reportE2E(r)
	r.printf("-- traced phase")
	traced.reportE2E(r)
	in.tr.absorb(in.reg)

	reportSetupLayers(r, builds, setupCounters)
	reportCounters(r, readCounters(in.reg).since(base), len(traced.ops))
	reportSweepLayer(r, sweepByOp(in.tr.spans), traced.ops, parallel.Workers(s.Workers))
	r.set("dataset.stream_write_s", median(traced.writes))
	r.set("dataset.stream_bytes", mean(traced.bytes))
	r.set("dataset.bytes_per_block", ratio(mean(traced.bytes), mean(traced.blocks)))
	r.timing("dataset.stream_write_s", "s", 1, traced.writes)
	r.printf("%-24s %.0f bytes per round for %.0f blocks", "dataset.stream_bytes", mean(traced.bytes), mean(traced.blocks))
	traced.rt.report(r, "round")
	reportSelf(r, in.tr.spans, traced.ops)
	reportOverhead(r, median(untraced.walls), median(traced.walls), len(in.tr.spans))
	return writeChrome(tracePath(o), in.tr.spans)
}

func (ph *sweepPhase) reportE2E(r *report) {
	r.set("step_s", median(ph.walls))
	r.set("runtime.cpu_s_per_op", median(ph.cpu))
	r.set("probes_per_step", mean(ph.probes))
	r.timing("sweep_s", "s", 1, ph.walls)
	r.timing("sweep_cpu_s", "s", 1, ph.cpu)
	r.printf("%-24s %.0f (mean per round, n=%d)", "probes_per_step", mean(ph.probes), len(ph.probes))
}

// phase runs rounds until the time is up (at least minOps), timing each
// from Measure through the v4 writer's Close, then checking it.
func (sw *sweeper) phase(secs float64, tr *tracer, r *report) (*sweepPhase, error) {
	ph := &sweepPhase{}
	end := time.Now().Add(time.Duration(secs * float64(time.Second)))
	for len(ph.ops) < minOps || time.Now().Before(end) {
		op := sw.round
		sw.round++
		id := sweepRoundIDs[sw.order[op%len(sw.order)]]
		r.op()
		ph.rt.start()
		root := tr.begin(laneWriter, "vpbench", "round", op, 0)
		t0 := time.Now()
		sp := tr.begin(laneWriter, "scenario", "scenario.Measure", op, root.id())
		catch, stats, err := sw.s.Measure(id)
		sp.end()
		if err != nil {
			root.end()
			ph.rt.stop()
			r.fail("round %d (RoundID %d): %v", op, id, err)
			continue
		}
		tw := time.Now()
		werr := sw.write(catch, stats, id, op, root.id(), tr)
		tEnd := time.Now()
		root.end()
		ph.rt.stop()
		if werr != nil {
			r.fail("round %d: v4 write: %v", op, werr)
			continue
		}
		ph.ops = append(ph.ops, op)
		ph.walls = append(ph.walls, tEnd.Sub(t0).Seconds())
		ph.writes = append(ph.writes, tEnd.Sub(tw).Seconds())
		ph.bytes = append(ph.bytes, float64(sw.buf.Len()))
		ph.blocks = append(ph.blocks, float64(catch.Len()))
		ph.probes = append(ph.probes, float64(stats.Sent))
		ph.cpu = append(ph.cpu, ph.rt.lastCPU)
		if err := sw.check(catch); err != nil {
			r.fail("round %d (RoundID %d): %v", op, id, err)
		}
	}
	return ph, nil
}

// write streams the catchment to an in-memory v4 dataset.
func (sw *sweeper) write(c *verfploeter.Catchment, stats verfploeter.Stats, id uint16, op, parent int, tr *tracer) error {
	sw.buf.Reset()
	meta := dataset.Meta{ID: "vpbench", Scenario: sw.s.Name, Sites: sw.s.SiteCodes(),
		RoundID: id, Seed: sw.s.Seed}
	sp := tr.begin(laneWriter, "dataset", "dataset.StreamWriter.Append", op, parent)
	w, err := dataset.NewStreamWriter(&sw.buf, meta, stats, c.NSite, c.Len())
	if err != nil {
		sp.end()
		return err
	}
	c.Range(func(blk ipv4.Block, site int) bool {
		rtt, _ := c.RTTOf(blk)
		err = w.Append(blk, site, rtt)
		return err == nil
	})
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin(laneWriter, "dataset", "dataset.StreamWriter.Close", op, parent)
	err = w.Close()
	sp.end()
	return err
}

// check compares the round's digest with its pin and reads the v4 bytes
// back, entry by entry, against the in-memory map.
func (sw *sweeper) check(c *verfploeter.Catchment) error {
	d := digest(c)
	if d != sweepPin {
		return fmt.Errorf("map digest %s, pinned %s", d, sweepPin)
	}
	rd, err := dataset.NewStreamReader(bytes.NewReader(sw.buf.Bytes()))
	if err != nil {
		return fmt.Errorf("v4 read-back: %w", err)
	}
	if rd.Len() != c.Len() {
		return fmt.Errorf("v4 read-back: %d entries, map has %d", rd.Len(), c.Len())
	}
	for _, blk := range c.Blocks() {
		e, err := rd.Next()
		if err != nil {
			return fmt.Errorf("v4 read-back: %w", err)
		}
		site, _ := c.SiteOf(blk)
		rtt, _ := c.RTTOf(blk)
		if e.Block != blk || e.Site != site || e.RTT != rtt {
			return fmt.Errorf("v4 read-back: entry %v/%d/%v, map has %v/%d/%v",
				e.Block, e.Site, e.RTT, blk, site, rtt)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		return fmt.Errorf("v4 read-back: trailing entries: %v", err)
	}
	return rd.Close()
}

// reportOverhead sets the tracing overhead: the traced phase's median
// operation time against the untraced phase's, as a fraction.
func reportOverhead(r *report, untraced, traced float64, spans int) {
	r.set("trace.overhead_frac", ratio(traced-untraced, untraced))
	r.set("trace.spans", float64(spans))
	r.printf("%-24s traced %.4f s - untraced %.4f s = %+.4f s (%+.1f%%), %d spans",
		"tracing overhead", traced, untraced, traced-untraced, 100*ratio(traced-untraced, untraced), spans)
}
