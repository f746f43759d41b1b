package experiments

import (
	"errors"
	"strings"
	"testing"

	"verfploeter/internal/faults"
	"verfploeter/internal/verfploeter"
)

// resetCampaignCache drops cached campaigns between identity passes:
// served rounds would mask a divergence in the path under test.
func resetCampaignCache() {
	campaignMu.Lock()
	campaignCache = map[worldKey][]*verfploeter.Catchment{}
	campaignMu.Unlock()
}

// TestFaultProfileKeysCampaignCache guards against the one bug class the
// campaign cache must never grow: a faulty campaign satisfying a
// fault-free request (or vice versa). The same config with and without a
// lossy profile must produce different fig9 reports AND occupy distinct
// cache entries.
func TestFaultProfileKeysCampaignCache(t *testing.T) {
	if testing.Short() {
		t.Skip("two tangled campaigns")
	}
	resetCampaignCache()
	cfg := smallCfg()
	clean, err := Run("fig9", cfg)
	if err != nil {
		t.Fatal(err)
	}

	lossy := cfg
	lossy.Faults = faults.Heavy()
	lossy.Faults.Seed = cfg.Seed
	lossy.Retries = 1
	faulty, err := Run("fig9", lossy)
	if err != nil {
		t.Fatal(err)
	}

	if clean.Text == faulty.Text {
		t.Error("heavy loss left the stability report unchanged — the campaign cache likely served stale rounds")
	}
	campaignMu.Lock()
	keys := 0
	for k := range campaignCache {
		if k.preset == "tangled-campaign" {
			keys++
		}
	}
	campaignMu.Unlock()
	if keys != 2 {
		t.Errorf("expected 2 distinct campaign cache entries (fault-free + faulty), got %d", keys)
	}

	// Re-running the fault-free config after the faulty one must
	// reproduce the original bytes (cache hit, right entry).
	again, err := Run("fig9", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Text != clean.Text {
		t.Error("fault-free rerun differs after a faulty campaign — cache entries cross-contaminated")
	}
}

// TestRunAllSurfacesFailures: a preset that errors or panics must be
// recorded as a failed Outcome without aborting the batch.
func TestRunAllSurfacesFailures(t *testing.T) {
	register("boom-test", "always panics", func(Config) (*Result, error) {
		panic("kaboom")
	})
	defer delete(registry, "boom-test")

	outs := RunAll(smallCfg(), []string{"nonsense", "boom-test", "table6"})
	if len(outs) != 3 {
		t.Fatalf("expected 3 outcomes, got %d", len(outs))
	}
	if outs[0].Err == nil {
		t.Error("unknown id must surface an error")
	}
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "panicked") {
		t.Errorf("panicking preset must surface a panic error, got %v", outs[1].Err)
	}
	if outs[2].Err != nil || outs[2].Result == nil {
		t.Errorf("batch must continue past failures: table6 got err=%v", outs[2].Err)
	}
}

// TestCampaignFailureSurfaces: an invalid retry budget makes every
// measurement round fail; the campaign presets must surface the error
// through RunAll rather than panic or silently skip.
func TestCampaignFailureSurfaces(t *testing.T) {
	resetCampaignCache()
	cfg := smallCfg()
	cfg.Retries = -1
	outs := RunAll(cfg, []string{"fig9"})
	if outs[0].Err == nil {
		t.Fatal("campaign with an invalid retry budget must fail")
	}
	if !errors.Is(outs[0].Err, verfploeter.ErrConfig) {
		t.Errorf("failure should carry the round's config error, got %v", outs[0].Err)
	}
	// The failed campaign must not be cached: a later valid run needs a
	// fresh attempt.
	campaignMu.Lock()
	n := len(campaignCache)
	campaignMu.Unlock()
	if n != 0 {
		t.Errorf("failed campaign was cached (%d entries)", n)
	}
	resetCampaignCache()
}

// TestReportPartial pins the truncation marker: a nil error writes
// nothing (healthy reports stay byte-identical), a real error records
// the completed prefix in both the text and the metrics.
func TestReportPartial(t *testing.T) {
	r := newReport()
	r.partial(nil, 5)
	if r.sb.Len() != 0 || len(r.metrics) != 0 {
		t.Fatal("partial(nil) must write nothing")
	}
	r.partial(errors.New("site dark"), 3)
	res := r.result("x", "x")
	if !strings.Contains(res.Text, "PARTIAL") || !strings.Contains(res.Text, "3 completed rounds") {
		t.Errorf("partial marker missing:\n%s", res.Text)
	}
	if res.Metrics["partial_rounds"] != 3 {
		t.Errorf("partial_rounds = %v, want 3", res.Metrics["partial_rounds"])
	}
}
