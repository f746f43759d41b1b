package experiments

import (
	"strings"
	"sync"
	"testing"

	"verfploeter/internal/bgp"
	"verfploeter/internal/faults"
	"verfploeter/internal/loadgen"
	"verfploeter/internal/obsv"
	"verfploeter/internal/playbook"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
)

// The byte-identity matrix: every experiment's rendered Result.Text must
// be byte-for-byte identical on the default path (workersConfig(2),
// route cache and incremental recomputation on, no instrumentation, no
// fault profile, a pristine route cache) and with exactly one axis
// switched. The default pass is rendered once and shared; each axis
// resets the campaign cache — served rounds would mask a divergence in
// the path under test — switches its variant on, renders every
// experiment again, and compares.

// identityAxis is one row of the matrix. variant switches the axis on
// and returns the config the variant pass runs with, plus a func that
// restores global state and checks the axis's vacuity guards once the
// pass is done.
type identityAxis struct {
	short   bool // also runs under -short, on identityIDs' subset
	variant func(t *testing.T) (Config, func())
}

var identityAxes = map[string]identityAxis{
	// The parallel engine's contract: the reports at workers=1 match the
	// baseline's workers=2.
	"workers": {variant: func(*testing.T) (Config, func()) {
		return workersConfig(1), nil
	}},

	// The converged-table cache: a divergence means a cached table
	// differs from a freshly converged one (VP_NO_ROUTE_CACHE escape
	// hatch).
	"route-cache": {variant: func(t *testing.T) (Config, func()) {
		prev := bgp.SetRouteCache(false)
		bgp.ResetRouteCache()
		return workersConfig(2), func() {
			bgp.SetRouteCache(prev)
			bgp.ResetRouteCache()
			if identityBase.cacheHits == 0 {
				t.Error("baseline pass recorded no route-cache hits; identity check is vacuous")
			}
		}
	}},

	// Incremental recomputation: cache misses run cold ComputeEpoch
	// (VP_NO_ROUTE_DELTA semantics) instead of the dirty-cone
	// ComputeDelta the baseline took. Prepend sweeps, withdrawals,
	// escalations and epoch drift all reuse predecessor tables, so the
	// delta path is exercised on every experiment.
	"delta": {variant: func(*testing.T) (Config, func()) {
		prev := bgp.SetRouteDelta(false)
		bgp.ResetRouteCache()
		return workersConfig(2), func() {
			bgp.SetRouteDelta(prev)
			bgp.ResetRouteCache()
		}
	}},

	// The fault layer: a profile whose every rate is zero — even with a
	// nonzero seed, the shape faults.Parse produces for "seed=99" — must
	// not perturb the zero-fault path.
	"zero-rate-faults": {variant: func(t *testing.T) (Config, func()) {
		zero := faults.Profile{Seed: 99}
		if zero.Enabled() {
			t.Fatal("seed-only profile must not enable injection")
		}
		cfg := workersConfig(2)
		cfg.Faults = zero
		return cfg, nil
	}},

	// Instrumentation: a registry on every config, tracing enabled, bgp
	// hooks installed. A divergence means instrumentation fed back into
	// the simulation. The route cache is dropped so the instrumented
	// pass recomputes tables, taking the incremental path wherever a
	// predecessor exists.
	"obsv": {variant: func(t *testing.T) (Config, func()) {
		bgp.ResetRouteCache()
		reg := obsv.New()
		reg.EnableTracing()
		bgp.SetObs(reg)
		cfg := workersConfig(2)
		cfg.Obs = reg
		return cfg, func() {
			bgp.SetObs(nil)
			if reg.Counter("probes_sent", "").Value() == 0 {
				t.Error("instrumented pass recorded no probes; identity check is vacuous")
			}
			if len(reg.Spans()) == 0 {
				t.Error("instrumented pass recorded no spans; tracing was not exercised")
			}
			if reg.Counter("bgp_delta_computes", "").Value() == 0 {
				t.Error("instrumented pass took no incremental recompute; delta identity coverage is vacuous")
			}
			if reg.Counter("assign_blocks_reused", "").Value() == 0 {
				t.Error("instrumented pass reused no assignment blocks; delta-assign coverage is vacuous")
			}
		}
	}},

	// The playbook's do-no-harm contract: a plan search — which floods
	// the route cache with candidate tables and delta predecessors —
	// must not perturb any other experiment.
	"no-attack": {short: true, variant: func(t *testing.T) (Config, func()) {
		s := scenario.BRoot(topology.SizeTiny, 7)
		normal := s.RootLog()
		mix, err := loadgen.ParseAttackMix("shape=concentrated,volume=3x,ases=12,seed=3")
		if err != nil {
			t.Fatal(err)
		}
		total := normal.TotalQPD()
		playbook.Search(s, playbook.Config{
			Target:   0,
			Capacity: []float64{2.0 * total, 4.5 * total},
			Normal:   normal,
			Attack:   mix.Synthesize(s.Top, total),
			Workers:  2,
		})
		return workersConfig(2), bgp.ResetRouteCache
	}},
}

// identityBase is the shared default pass, rendered once.
var identityBase struct {
	once      sync.Once
	text      map[string]string
	cacheHits uint64
	err       error
}

// identityIDs is every experiment, or under -short a subset that still
// crosses every route-cache entry point (reannounce sweep, test prefix,
// monitor, playbook family).
func identityIDs() []string {
	if !testing.Short() {
		return IDs()
	}
	ids := []string{"ext-ddos", "ext-ddos-playbook", "ext-ddos-loop"}
	for _, want := range []string{"table4", "prepend"} {
		for _, id := range IDs() {
			if strings.Contains(id, want) {
				ids = append(ids, id)
				break
			}
		}
	}
	return ids
}

// identityBaseline renders the default pass on a pristine campaign and
// route cache, once per test binary.
func identityBaseline(t *testing.T) map[string]string {
	t.Helper()
	identityBase.once.Do(func() {
		resetCampaignCache()
		bgp.ResetRouteCache()
		identityBase.text = map[string]string{}
		for _, id := range identityIDs() {
			res, err := Run(id, workersConfig(2))
			if err != nil {
				identityBase.err = err
				return
			}
			identityBase.text[id] = res.Text
		}
		identityBase.cacheHits, _ = bgp.RouteCacheStats()
	})
	if identityBase.err != nil {
		t.Fatalf("baseline pass: %v", identityBase.err)
	}
	return identityBase.text
}

// runIdentityAxis renders every experiment under the named axis's
// variant and compares each report with the shared baseline.
func runIdentityAxis(t *testing.T, name string) {
	axis := identityAxes[name]
	if testing.Short() && !axis.short {
		t.Skip("full experiment sweep")
	}
	base := identityBaseline(t)
	cfg, done := axis.variant(t)
	if done != nil {
		defer done()
	}
	resetCampaignCache()
	for _, id := range identityIDs() {
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s under %s: %v", id, name, err)
		}
		if res.Text != base[id] {
			t.Errorf("%s: report differs under the %s axis:\n--- baseline\n%s\n--- %s\n%s",
				id, name, base[id], name, res.Text)
		}
	}
}

func TestExperimentsByteIdenticalAcrossWorkers(t *testing.T)  { runIdentityAxis(t, "workers") }
func TestExperimentsByteIdenticalWithRouteCache(t *testing.T) { runIdentityAxis(t, "route-cache") }
func TestExperimentsByteIdenticalWithDelta(t *testing.T)      { runIdentityAxis(t, "delta") }
func TestExperimentsByteIdenticalWithZeroRateFaults(t *testing.T) {
	runIdentityAxis(t, "zero-rate-faults")
}
func TestExperimentsByteIdenticalWithObs(t *testing.T) { runIdentityAxis(t, "obsv") }
func TestNoAttackPathByteIdentical(t *testing.T)       { runIdentityAxis(t, "no-attack") }
