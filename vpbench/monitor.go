package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"verfploeter/internal/dataset"
	"verfploeter/internal/monitor"
	"verfploeter/internal/parallel"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// monitor-internet: b-root at the internet tier shaped decisively (site 0
// prepended +3, as ext-predict does, so prediction can skip strata),
// monitored with Sample 0.125 and Predict on. Epochs run in cycles of
// monitorCycle: an operator drops one of the prepends at epoch
// monitorChangeAt of each cycle and restores it at monitorRevertAt. A
// run steps one cycle per ten seconds of --seconds.
//
// The schedule, the scenario seed and the number of cycles are fixed,
// because the monitor's work depends on the epoch index (the
// rotating per-AS sample and canary strata are hashed from it): moving
// the change by one epoch moved the stable-epoch median by 25% between
// seeds. --seed therefore selects nothing on this workload.
const (
	monitorScenarioSeed = 1
	monitorCycle        = 8
	monitorChangeAt     = 3
	monitorRevertAt     = 5
	monitorMaxEpochs    = 1 + 64*monitorCycle
)

type monitorRun struct {
	s  *scenario.Scenario
	ss *monitor.Session
	// state names the routing state each epoch is measured under
	// ("base" or "change"); changed marks epochs that carry an action.
	state   []string
	changed []bool
	last    *verfploeter.Catchment
}

type monitorPhase struct {
	ops                          []int
	stable, change, all          []float64
	stableCPU                    []float64 // process CPU seconds per stable epoch
	probes                       []float64
	escalated, skipped, fraction []float64
	hits, misses                 int
	rt                           runtimeAcc
}

// setupMonitor builds the shaped scenario and session and measures the
// baseline epoch; it returns the scenario-build time separately.
func setupMonitor(tr *tracer, rep int) (*monitorRun, float64) {
	sp := tr.begin(laneWriter, "scenario", "scenario.BRoot", -1-rep, 0)
	t0 := time.Now()
	s := scenario.BRoot(topology.SizeInternet, monitorScenarioSeed)
	build := time.Since(t0).Seconds()
	sp.end()

	base := s.Prepends()
	base[0] += 3
	sp = tr.begin(laneWriter, "scenario", "scenario.ReannounceFull", -1-rep, 0)
	s.ReannounceFull(base, s.DownSites(), s.RoutingEpoch())
	sp.end()
	change := append([]int(nil), base...)
	change[0]--

	m := &monitorRun{s: s, state: make([]string, monitorMaxEpochs), changed: make([]bool, monitorMaxEpochs)}
	var actions []monitor.Action
	state := "base"
	for e := 1; e < monitorMaxEpochs; e++ {
		switch (e - 1) % monitorCycle {
		case monitorChangeAt:
			actions = append(actions, monitor.Action{Epoch: e, Prepend: change})
			m.changed[e], state = true, "change"
		case monitorRevertAt:
			actions = append(actions, monitor.Action{Epoch: e, Prepend: base})
			m.changed[e], state = true, "base"
		}
		m.state[e] = state
	}
	m.state[0] = "base"
	m.ss = monitor.NewSession(s, monitor.Config{Sample: 0.125, Predict: true, Actions: actions})
	return m, build
}

// newMonitor sets up a monitor run and measures its baseline epoch, with
// the instruments attached; it returns the scenario-build time too.
func newMonitor(in *instruments, rep int) (*monitorRun, float64, error) {
	m, build := setupMonitor(in.tr, rep)
	m.s.Obs = in.reg
	sp := in.tr.begin(laneWriter, "monitor", "monitor.Session.Step", -1-rep, 0)
	er, err := m.ss.Step()
	sp.end()
	if err != nil {
		return nil, 0, fmt.Errorf("baseline epoch: %w", err)
	}
	m.last = er.Map
	return m, build, nil
}

func runMonitor(o options, r *report) error {
	in := newInstruments(o.trace)
	defer in.close()

	var m *monitorRun
	var setups, builds []float64
	for i := 0; i < setupReps; i++ {
		m = nil
		debug.FreeOSMemory() // drop the previous set-up before timing the next
		t0 := time.Now()
		var build float64
		var err error
		if m, build, err = newMonitor(in, i); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, build)
	}
	r.set("setup_s", median(setups))
	r.timing("setup_s", "s", 1, setups)
	r.printf("%-24s %d targets, %d workers, prepend change at epoch %d and revert at %d of each %d-epoch cycle",
		"scenario", m.s.Hitlist.Len(), parallel.Workers(m.s.Workers), monitorChangeAt+1, monitorRevertAt+1, monitorCycle)
	r.op()
	m.checkDigest(r, 0, m.last)
	setupCounters := readCounters(in.reg)

	if !o.trace {
		m.s.Obs = nil
		ph := m.phase(o.seconds, nil, r)
		ph.reportE2E(r)
		m.checkSeries(r)
		return nil
	}

	m.s.Obs = nil
	in.hookBGP(false)
	untraced := m.phase(o.seconds/2, nil, r)
	m.checkSeries(r)
	// The traced phase runs on a fresh session so that it steps the same
	// epochs as the untraced one did.
	m = nil
	debug.FreeOSMemory()
	in.hookBGP(true)
	m, _, err := newMonitor(in, setupReps)
	if err != nil {
		return err
	}
	r.op()
	m.checkDigest(r, 0, m.last)
	base := readCounters(in.reg)
	traced := m.phase(o.seconds/2, in.tr, r)
	d := readCounters(in.reg).since(base)
	m.checkSeries(r)
	r.printf("-- untraced phase")
	untraced.reportE2E(r)
	r.printf("-- traced phase")
	traced.reportE2E(r)
	in.tr.absorb(in.reg)

	reportSetupLayers(r, builds, setupCounters)
	reportCounters(r, d, len(traced.ops))
	reportSweepLayer(r, sweepByOp(in.tr.spans), traced.ops, parallel.Workers(m.s.Workers))
	r.set("monitor.step_s", median(traced.all))
	r.set("monitor.change_step_s", median0(traced.change))
	r.timing("monitor.step_s", "s", 1, traced.all)
	r.printf("%-24s median=%.4f s n=%d", "monitor.change_step_s", median0(traced.change), len(traced.change))
	self, classify := monitorSpans(in.tr.spans, traced.ops, m.changed)
	r.set("monitor.step_self_s", median(self))
	r.set("monitor.classify_s", median(classify))
	r.timing("monitor.step_self_s", "s", 1, self)
	r.timing("monitor.classify_s", "s", 1, classify)
	r.set("monitor.escalated_strata", mean(traced.escalated))
	r.set("monitor.probe_fraction", mean(traced.fraction))
	r.set("predict.skipped_strata", mean(traced.skipped))
	r.set("predict.hits", float64(traced.hits))
	r.set("predict.misses", float64(traced.misses))
	r.printf("%-24s %.2f escalated strata/epoch, %.2f skipped strata/epoch, probe fraction %.4f of %d targets; predict hits %d misses %d",
		"monitor/predict", mean(traced.escalated), mean(traced.skipped), mean(traced.fraction),
		m.s.Hitlist.Len(), traced.hits, traced.misses)
	traced.rt.report(r, "epoch")
	reportSelf(r, in.tr.spans, traced.ops)
	reportOverhead(r, median(untraced.stable), median(traced.stable), len(in.tr.spans))
	return writeChrome(tracePath(o), in.tr.spans)
}

func (ph *monitorPhase) reportE2E(r *report) {
	r.set("step_s", median(ph.stable))
	r.set("runtime.cpu_s_per_op", median(ph.stableCPU))
	r.set("probes_per_step", mean(ph.probes))
	r.timing("stable_epoch_s", "s", 1, ph.stable)
	r.timing("stable_epoch_cpu_s", "s", 1, ph.stableCPU)
	if len(ph.change) > 0 {
		r.timing("change_epoch_s", "s", 1, ph.change)
	} else {
		r.printf("%-24s no change epoch in this phase", "change_epoch_s")
	}
	r.printf("%-24s %.0f (mean per non-baseline epoch, n=%d)", "probes_per_epoch", mean(ph.probes), len(ph.probes))
	line := ""
	for i, op := range ph.ops {
		line += fmt.Sprintf(" %d:%.3fs/%.0fk", op, ph.all[i], ph.probes[i]/1e3)
	}
	r.printf("%-24s%s", "epochs (wall/probes)", line)
}

// phase steps one whole cycle of epochs per ten seconds asked for, at
// least one. The count does not depend on how fast the machine runs, so
// every run measures the same epochs.
func (m *monitorRun) phase(secs float64, tr *tracer, r *report) *monitorPhase {
	ph := &monitorPhase{}
	n := float64(m.s.Hitlist.Len())
	cycles := max(1, int(math.Round(secs/10)))
	for c := 0; c < cycles; c++ {
		if !m.cycle(ph, tr, r, n) {
			break
		}
	}
	return ph
}

// cycle steps one cycle of epochs; false means the run must stop.
func (m *monitorRun) cycle(ph *monitorPhase, tr *tracer, r *report, n float64) bool {
	for i := 0; i < monitorCycle; i++ {
		e := m.ss.Epochs()
		if e >= monitorMaxEpochs {
			return false
		}
		r.op()
		ph.rt.start()
		sp := tr.begin(laneWriter, "monitor", "monitor.Session.Step", e, 0)
		t0 := time.Now()
		er, err := m.ss.Step()
		wall := time.Since(t0).Seconds()
		sp.end()
		ph.rt.stop()
		if err != nil {
			r.fail("epoch %d: %v", e, err)
			return false // a failed Step leaves the session mid-epoch
		}
		ph.ops = append(ph.ops, e)
		ph.all = append(ph.all, wall)
		if m.changed[e] {
			ph.change = append(ph.change, wall)
		} else {
			ph.stable = append(ph.stable, wall)
			ph.stableCPU = append(ph.stableCPU, ph.rt.lastCPU)
		}
		ph.probes = append(ph.probes, float64(er.Probes))
		ph.escalated = append(ph.escalated, float64(er.EscalatedStrata))
		ph.skipped = append(ph.skipped, float64(er.PredictSkippedStrata))
		ph.fraction = append(ph.fraction, float64(er.Probes)/n)
		ph.hits += er.PredictHits
		ph.misses += er.PredictMisses
		if er.PredictMisses > 0 {
			r.fail("epoch %d: %d predict misses", e, er.PredictMisses)
		}
		m.checkDigest(r, e, er.Map)
		m.last = er.Map
	}
	return true
}

func (m *monitorRun) checkDigest(r *report, e int, c *verfploeter.Catchment) {
	d := digest(c)
	pin, ok := monitorPins[m.state[e]]
	switch {
	case !ok:
		fmt.Printf("unpinned monitor digest state %s epoch %d: %s\n", m.state[e], e, d)
	case d != pin:
		r.fail("epoch %d (%s routing): map digest %s, pinned %s", e, m.state[e], d, pin)
	}
}

// checkSeries writes the session's series, reads it back and checks that
// the last epoch reconstructs to the final map.
func (m *monitorRun) checkSeries(r *report) {
	r.op()
	var buf bytes.Buffer
	if err := dataset.WriteSeries(&buf, m.ss.Series()); err != nil {
		r.fail("series write: %v", err)
		return
	}
	size := buf.Len()
	back, err := dataset.ReadSeries(&buf)
	if err != nil {
		r.fail("series read: %v", err)
		return
	}
	at, err := back.At(back.Len() - 1)
	if err != nil {
		r.fail("series At(%d): %v", back.Len()-1, err)
		return
	}
	if !at.Equal(m.last) {
		r.fail("series At(%d) differs from the final map", back.Len()-1)
	}
	r.printf("%-24s %d epochs, %d bytes, At(last) equals the final map", "series", back.Len(), size)
}

// monitorSpans returns, per stable epoch, Step's self time net of the
// program's sweep, fold, classify and bgp spans (the union, since sweep
// chunks run in parallel), and per epoch the classify time.
func monitorSpans(spans []span, ops []int, changed []bool) (self, classify []float64) {
	inner := map[int][]interval{}
	cls := map[int]float64{}
	steps := map[int]interval{}
	for i := range spans {
		s := &spans[i]
		switch {
		case !s.FromObsv && s.Name == "monitor.Session.Step":
			steps[s.Op] = s.iv()
		case s.FromObsv && s.Name != "epoch":
			inner[s.Op] = append(inner[s.Op], s.iv())
			if s.Name == "classify" {
				cls[s.Op] += s.Dur.Seconds()
			}
		}
	}
	for _, op := range ops {
		classify = append(classify, cls[op])
		if !changed[op] {
			self = append(self, float64(selfTime(steps[op], inner[op]))/1e9)
		}
	}
	return self, classify
}

// median0 is median with 0 for no samples (an idle layer).
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
