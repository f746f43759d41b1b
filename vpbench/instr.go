package main

import (
	"verfploeter/internal/bgp"
	"verfploeter/internal/obsv"
)

// instruments is a traced run's collection side: an obsv registry with
// span tracing on, plus the benchmark's own span recorder. Both are nil
// in an untraced run. The registry is installed on the bgp package's
// global hook during set-up and the traced phase only (see hookBGP), so
// the untraced reference phase runs with bgp instrumentation off.
type instruments struct {
	reg *obsv.Registry
	tr  *tracer
}

func newInstruments(traced bool) *instruments {
	if !traced {
		return &instruments{}
	}
	reg := obsv.New()
	reg.EnableTracing()
	bgp.SetObs(reg)
	return &instruments{reg: reg, tr: &tracer{}}
}

// hookBGP installs the registry on the bgp hook (on) or removes it.
// It does nothing in an untraced run.
func (in *instruments) hookBGP(on bool) {
	switch {
	case in.reg == nil:
	case on:
		bgp.SetObs(in.reg)
	default:
		bgp.SetObs(nil)
	}
}

// close uninstalls the bgp hook.
func (in *instruments) close() { in.hookBGP(false) }

// reportSetupLayers sets the per-layer metrics of set-up: the median
// scenario build and the bgp convergence and assignment time per set-up.
func reportSetupLayers(r *report, builds []float64, setupCounters counters) {
	r.set("scenario.build_s", median(builds))
	n := float64(len(builds))
	r.set("bgp.compute_s", ratio(setupCounters["bgp_compute_seconds_sum"], n))
	r.set("bgp.assign_s", ratio(setupCounters["bgp_assign_seconds_sum"], n))
	r.printf("%-24s build %.4f s (median), bgp compute %.4f s, assign %.4f s per set-up (n=%d)",
		"set-up layers", median(builds), ratio(setupCounters["bgp_compute_seconds_sum"], n),
		ratio(setupCounters["bgp_assign_seconds_sum"], n), len(builds))
}
