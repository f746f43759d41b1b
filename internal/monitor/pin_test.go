package monitor

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"verfploeter/internal/dataset"
	"verfploeter/internal/faults"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
)

// TestMonitorOutputPinned pins the monitor's whole output, not just its
// maps: the SHA-256 of the serialized series (baseline, every delta and
// event) and every EpochResult counter, over 12-epoch small-tier B-Root
// sessions. The operator prepends site 0 at epoch 3 and reverts at
// epoch 7 (global escalations); at epoch 10 a tie-break bump moves a
// few ASes (partial escalation), or — in the swap case — the same bump
// is deployed behind the predictor's back (predict misses). The cases
// cover plain sampling, prediction fused on top, a worker pool, and
// lossy probing with retries (the unanswered-target path of a subset
// sweep). The pins were taken from the block-keyed epoch the id-keyed
// one replaced; any drift in probe counts, escalation decisions or
// series bytes fails here.
func TestMonitorOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("small-tier sessions")
	}
	for _, tc := range []struct {
		name     string
		predict  bool
		workers  int
		faulty   bool
		swap     bool
		series   string
		counters string
	}{
		{"sample", false, 1, false, false,
			"fec1908f9ef71f101e95a03a8213b848422803c2920f3ed3fbb141baef633165",
			"0:17508/17508/0/0/0/0 1:2603/2603/0/0/0/0 2:2603/2603/0/0/0/0 3:20111/2603/32/0/0/0 4:2603/2603/0/0/0/0 5:2603/2603/0/0/0/0 6:2603/2603/0/0/0/0 7:20111/2603/32/0/0/0 8:2603/2603/0/0/0/0 9:2603/2603/0/0/0/0 10:9570/2603/7/0/0/0 11:3051/2603/1/0/0/0"},
		{"predict", true, 1, false, false,
			"f9ac00c6e060526fcc3412584cc2f6028d17a853d92c16793d8d42b727fd76c6",
			"0:17508/17508/0/0/0/0 1:963/963/0/3/0/0 2:1027/1027/0/3/0/0 3:17508/0/32/0/5255/0 4:717/717/0/23/0/0 5:626/626/0/24/0/0 6:692/692/0/23/0/0 7:17508/0/32/0/5255/0 8:1026/1026/0/2/0/0 9:965/965/0/3/0/0 10:11293/369/18/1/187/0 11:994/994/0/2/0/0"},
		{"predict-workers4", true, 4, false, false,
			"f9ac00c6e060526fcc3412584cc2f6028d17a853d92c16793d8d42b727fd76c6",
			"0:17508/17508/0/0/0/0 1:963/963/0/3/0/0 2:1027/1027/0/3/0/0 3:17508/0/32/0/5255/0 4:717/717/0/23/0/0 5:626/626/0/24/0/0 6:692/692/0/23/0/0 7:17508/0/32/0/5255/0 8:1026/1026/0/2/0/0 9:965/965/0/3/0/0 10:11293/369/18/1/187/0 11:994/994/0/2/0/0"},
		{"predict-faults-retries", true, 1, true, false,
			"84d5f649827d6af6718363a76b748c28e005636fcbf0b7908d7d8a63b7804ec9",
			"0:36922/17508/0/0/0/0 1:2096/963/0/3/0/0 2:2237/1027/0/3/0/0 3:36922/0/32/0/4993/0 4:1637/717/0/23/0/0 5:1422/626/0/24/0/0 6:1571/692/0/23/0/0 7:36922/0/32/0/4993/0 8:2232/1026/0/2/0/0 9:2103/965/0/3/0/0 10:23817/369/18/1/182/0 11:2210/994/0/2/0/0"},
		{"predict-miss", true, 1, false, true,
			"ed373bbe632840a2e12a835153048d98860dbd91fc4d555f14ed79df032d6c6d",
			"0:17508/17508/0/0/0/0 1:963/963/0/3/0/0 2:1027/1027/0/3/0/0 3:17508/0/32/0/5255/0 4:717/717/0/23/0/0 5:626/626/0/24/0/0 6:692/692/0/23/0/0 7:17508/0/32/0/5255/0 8:1026/1026/0/2/0/0 9:965/965/0/3/0/0 10:2376/1022/2/3/0/11 11:1416/968/1/2/0/2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := scenario.BRoot(topology.SizeSmall, 1)
			s.Workers = tc.workers
			if tc.faulty {
				p := faults.Moderate()
				p.Seed = 9
				s.SetFaults(p)
				s.Retries = 2
			}
			s.OnEpoch(func(sc *scenario.Scenario, e int) {
				if e != 10 {
					return
				}
				if tc.swap {
					_, asg := sc.PredictRouting(sc.Prepends(), sc.DownSites(), sc.RoutingEpoch()+1)
					sc.Net.SetAssignment(asg)
					return
				}
				sc.ReannounceFull(sc.Prepends(), sc.DownSites(), sc.RoutingEpoch()+1)
			})
			base := s.Prepends()
			change := append([]int(nil), base...)
			change[0] += 2
			res, err := Run(s, Config{
				Epochs: 12, Sample: 0.125, Predict: tc.predict,
				Actions: []Action{{Epoch: 3, Prepend: change}, {Epoch: 7, Prepend: base}},
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := dataset.WriteSeries(&buf, res.Series); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			var sb strings.Builder
			for _, er := range res.Epochs {
				fmt.Fprintf(&sb, "%d:%d/%d/%d/%d/%d/%d ", er.Epoch, er.Probes, er.Sampled,
					er.EscalatedStrata, er.PredictSkippedStrata, er.PredictHits, er.PredictMisses)
			}
			got := strings.TrimSpace(sb.String())
			if h := hex.EncodeToString(sum[:]); h != tc.series {
				t.Errorf("series sha256 = %s, pinned %s", h, tc.series)
			}
			if got != tc.counters {
				t.Errorf("epoch counters (epoch:probes/sampled/escalated/skipped/hits/misses)\n got: %s\npin: %s", got, tc.counters)
			}
		})
	}
}
