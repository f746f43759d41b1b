package verfploeter

import (
	"errors"
	"testing"
	"time"

	"verfploeter/internal/colstore"
	"verfploeter/internal/dataplane"
	"verfploeter/internal/ipv4"
)

// TestRunEmptySubset: a non-nil empty subset is a legitimate degenerate
// sweep (a monitor epoch whose sample stratum went dark) — it must
// complete cleanly with an empty catchment and all-zero stats, not
// error or divide by zero.
func TestRunEmptySubset(t *testing.T) {
	w := newWorld(t, 3, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	cfg := w.config(1)
	cfg.Subset = w.hl.Index().SetOf(ipv4.NewBlockSet(0))
	catch, stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if catch.Len() != 0 {
		t.Errorf("catchment has %d blocks, want 0", catch.Len())
	}
	if stats.Sent != 0 || stats.Targets != 0 || stats.Responded != 0 {
		t.Errorf("stats = %+v, want all-zero probe counts", stats)
	}
	if stats.Clean.Total != 0 {
		t.Errorf("cleaned %d replies from an empty sweep", stats.Clean.Total)
	}
	if rate := stats.ResponseRate(); rate != 0 {
		t.Errorf("ResponseRate() = %v, want 0", rate)
	}
}

// TestRunSingleBlockSubset: probing one block (plus its topology
// predecessor, the only block whose probe can alias into it) must
// reproduce exactly the observation the full sweep made for that block —
// the invariant the monitor's partial re-probe stitching rests on.
func TestRunSingleBlockSubset(t *testing.T) {
	w := newWorld(t, 3, dataplane.DefaultImpairments())
	full, _, err := Run(w.config(1))
	if err != nil {
		t.Fatal(err)
	}

	// Pick a mapped block with a predecessor in topology order.
	target := -1
	for i := 1; i < len(w.top.Blocks); i++ {
		if _, ok := full.SiteOf(w.top.Blocks[i].Block); ok {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no mapped block found")
	}
	block := w.top.Blocks[target].Block
	wantSite, _ := full.SiteOf(block)
	wantRTT, _ := full.RTTOf(block)

	sub := ipv4.NewBlockSet(2)
	sub.Add(block)
	sub.Add(w.top.Blocks[target-1].Block)
	cfg := w.config(1)
	cfg.Subset = w.hl.Index().SetOf(sub)
	part, stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Targets == 0 || stats.Targets > 2 {
		t.Errorf("subset sweep probed %d targets, want 1-2", stats.Targets)
	}
	gotSite, ok := part.SiteOf(block)
	if !ok {
		t.Fatalf("block %v missing from subset sweep", block)
	}
	if gotSite != wantSite {
		t.Errorf("subset mapped %v to site %d, full sweep to %d", block, gotSite, wantSite)
	}
	if gotRTT, _ := part.RTTOf(block); gotRTT != wantRTT {
		t.Errorf("subset RTT %v, full sweep %v", gotRTT, wantRTT)
	}
}

// TestRunSubsetSizeMismatch: a subset is a set of hitlist ids, so one
// built over another universe is a configuration error, not a sweep of
// whatever ids happen to overlap.
func TestRunSubsetSizeMismatch(t *testing.T) {
	w := newWorld(t, 3, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	cfg := w.config(1)
	cfg.Subset = colstore.NewBitset(w.hl.Len() + 1)
	if _, _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("Run with a %d-id subset over a %d-entry hitlist: err = %v, want ErrConfig",
			cfg.Subset.Size(), w.hl.Len(), err)
	}
}
