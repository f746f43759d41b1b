package scenario

import (
	"fmt"
	"strings"
	"testing"

	"verfploeter/internal/faults"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/topology"
)

// pickSubset returns every stride-th hitlist block.
func pickSubset(s *Scenario, stride int) *ipv4.BlockSet {
	sub := ipv4.NewBlockSet(s.Hitlist.Len() / stride)
	for i, e := range s.Hitlist.Entries {
		if i%stride == 0 {
			sub.Add(e.Addr.Block())
		}
	}
	return sub
}

// TestMeasureSubsetMatchesFull is the partial re-probe contract: for
// every block in the subset, a subset sweep observes exactly what the
// full sweep of the same round observes — same presence, site, and RTT —
// and never maps a block outside the subset. Checked fault-free and
// under a lossy profile with retries, since the monitor stitches under
// both.
func TestMeasureSubsetMatchesFull(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile faults.Profile
		retries int
	}{
		{"clean", faults.None(), 0},
		{"moderate-faults-retries", faults.Moderate(), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := BRoot(topology.SizeTiny, 7)
			if tc.profile.Enabled() {
				tc.profile.Seed = 9
				base.SetFaults(tc.profile)
			}
			base.Retries = tc.retries
			sub := pickSubset(base, 3)

			full, fstats, err := base.Fork().Measure(42)
			if err != nil {
				t.Fatal(err)
			}
			part, pstats, err := base.Fork().MeasureSubset(42, base.Hitlist.Index().SetOf(sub))
			if err != nil {
				t.Fatal(err)
			}

			if pstats.Targets != sub.Len() {
				t.Errorf("subset Targets = %d, want %d", pstats.Targets, sub.Len())
			}
			if pstats.Sent >= fstats.Sent {
				t.Errorf("subset sent %d probes, full sent %d — no savings", pstats.Sent, fstats.Sent)
			}
			part.Range(func(b ipv4.Block, site int) bool {
				if !sub.Contains(b) {
					t.Errorf("block %v mapped but not in subset", b)
				}
				return true
			})
			mismatch := 0
			sub.Range(func(b ipv4.Block) bool {
				fs, fok := full.SiteOf(b)
				ps, pok := part.SiteOf(b)
				if fok != pok || fs != ps {
					mismatch++
					return mismatch < 5
				}
				fr, _ := full.RTTOf(b)
				pr, _ := part.RTTOf(b)
				if fr != pr {
					t.Errorf("block %v RTT %v (full) vs %v (subset)", b, fr, pr)
					return false
				}
				return true
			})
			if mismatch > 0 {
				t.Errorf("%d subset blocks observed differently than in the full sweep", mismatch)
			}
		})
	}
}

// TestMeasureSubsetWorkerDeterminism: subset sweeps stay byte-identical
// at any worker count, like every other path through the engine.
func TestMeasureSubsetWorkerDeterminism(t *testing.T) {
	base := BRoot(topology.SizeTiny, 11)
	base.Retries = 1
	p := faults.Light()
	p.Seed = 3
	base.SetFaults(p)
	sub := pickSubset(base, 5)

	render := make(map[int]string)
	for _, w := range []int{1, 3, 8} {
		f := base.Fork()
		f.Workers = w
		c, stats, err := f.MeasureSubset(77, base.Hitlist.Index().SetOf(sub))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "sent=%d retried=%d responded=%d\n", stats.Sent, stats.Retried, stats.Responded)
		for _, b := range c.Blocks() {
			site, _ := c.SiteOf(b)
			rtt, _ := c.RTTOf(b)
			fmt.Fprintf(&sb, "%v %d %v\n", b, site, rtt)
		}
		render[w] = sb.String()
	}
	if render[1] != render[3] || render[1] != render[8] {
		t.Fatal("subset sweep differs across worker counts")
	}
}
