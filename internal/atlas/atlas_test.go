package atlas

import (
	"testing"

	"verfploeter/internal/bgp"
	"verfploeter/internal/dataplane"
	"verfploeter/internal/dnswire"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/topology"
)

type testNamer struct{ names []string }

func (n *testNamer) SiteByName(txt string) (int, bool) {
	for i, s := range n.names {
		if s == txt {
			return i, true
		}
	}
	return 0, false
}

func testNet(t *testing.T, seed uint64) (*topology.Topology, *dataplane.Net, *testNamer) {
	t.Helper()
	top := topology.Generate(topology.DefaultParams(topology.SizeTiny, seed))
	anns := []bgp.Announcement{
		{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118},
		{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
	}
	asg := bgp.Compute(top, anns).Assign()
	net := dataplane.New(dataplane.Config{
		Top: top, Seed: seed,
		Impair:        dataplane.DefaultImpairments(),
		AnycastPrefix: ipv4.MustParsePrefix("198.18.0.0/24"),
	})
	net.SetAssignment(asg)
	namer := &testNamer{names: []string{"b1-lax", "b2-mia"}}
	for s := 0; s < 2; s++ {
		s := s
		net.AttachSite(s, func(q []byte) []byte {
			msg, err := dnswire.Unmarshal(q)
			if err != nil {
				t.Fatalf("site handler got bad query: %v", err)
			}
			resp := msg.Respond(dnswire.RCodeNoError)
			resp.AnswerTXT(namer.names[s])
			raw, err := resp.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			return raw
		})
	}
	return top, net, namer
}

func TestPlacementSkewAndDeterminism(t *testing.T) {
	top, _, _ := testNet(t, 1)
	p := New(top, 500, 9)
	if len(p.VPs) != 500 {
		t.Fatalf("placed %d VPs", len(p.VPs))
	}
	eu := 0
	for _, vp := range p.VPs {
		ci := topology.CountryIndex(vp.Country)
		if ci < 0 {
			t.Fatalf("VP in unknown country %q", vp.Country)
		}
		if topology.Countries[ci].Continent == "EU" {
			eu++
		}
	}
	// Europe holds most Atlas weight; expect a strong majority.
	if frac := float64(eu) / 500; frac < 0.45 {
		t.Errorf("EU fraction = %.2f, want the documented European skew", frac)
	}
	p2 := New(top, 500, 9)
	for i := range p.VPs {
		if p.VPs[i] != p2.VPs[i] {
			t.Fatal("placement not deterministic")
		}
	}
}

func TestMeasure(t *testing.T) {
	top, net, namer := testNet(t, 2)
	p := New(top, 300, 5)
	res := p.Measure(net, namer, 0)

	if res.Considered != 300 {
		t.Errorf("Considered = %d", res.Considered)
	}
	if res.Responding+res.NonResponding != res.Considered {
		t.Error("VP accounting does not add up")
	}
	// DownFrac ~4.6%: expect a small but nonzero failure count.
	if res.NonResponding == 0 || res.NonResponding > 60 {
		t.Errorf("NonResponding = %d, want a few percent of 300", res.NonResponding)
	}
	if res.Blocks.Len() == 0 || res.Blocks.Len() > res.Responding {
		t.Errorf("blocks = %d of %d responding", res.Blocks.Len(), res.Responding)
	}

	// Every successful VP observation must match the data plane's
	// ground-truth catchment for the VP's block.
	for _, pr := range res.PerVP {
		if pr.Site < 0 {
			continue
		}
		if want := net.SiteOfBlock(pr.VP.Addr.Block()); want != pr.Site {
			t.Fatalf("VP %d observed site %d, ground truth %d", pr.VP.ID, pr.Site, want)
		}
	}

	fr := res.SiteFractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("site fractions sum to %v", sum)
	}

	cc := res.CountryCounts()
	if len(cc) == 0 || cc[0].VPs < cc[len(cc)-1].VPs {
		t.Error("CountryCounts not sorted descending")
	}
}

func TestMeasureRoundChurn(t *testing.T) {
	top, net, namer := testNet(t, 3)
	p := New(top, 400, 7)
	a := p.Measure(net, namer, 0)
	b := p.Measure(net, namer, 1)
	// Different rounds should take different VPs down.
	diff := 0
	for i := range a.PerVP {
		if (a.PerVP[i].Site < 0) != (b.PerVP[i].Site < 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("VP up/down churn should differ between rounds")
	}
	// Same round is reproducible.
	c := p.Measure(net, namer, 0)
	for i := range a.PerVP {
		if a.PerVP[i].Site != c.PerVP[i].Site {
			t.Fatal("same round should reproduce exactly")
		}
	}
}

type confusedNamer struct{}

func (confusedNamer) SiteByName(string) (int, bool) { return 0, false }

func TestMeasureUnknownSiteNames(t *testing.T) {
	top, net, _ := testNet(t, 9)
	p := New(top, 50, 11)
	res := p.Measure(net, confusedNamer{}, 0)
	// Every answered VP carries a TXT the namer rejects: all must be
	// counted non-responding, none mapped.
	if res.Responding != 0 {
		t.Errorf("responding = %d with a namer that rejects everything", res.Responding)
	}
	if res.NonResponding != res.Considered {
		t.Errorf("accounting: %d + %d != %d", res.Responding, res.NonResponding, res.Considered)
	}
	if res.SiteFractions() != nil {
		t.Error("fractions of an empty measurement should be nil")
	}
}

func TestMeasureLatency(t *testing.T) {
	top, net, _ := testNet(t, 13)
	p := New(top, 200, 13)
	samples := p.MeasureLatency(net, 0)
	if len(samples) == 0 {
		t.Fatal("no latency samples")
	}
	// Down VPs are excluded, so fewer samples than VPs (usually).
	if len(samples) > len(p.VPs) {
		t.Fatalf("%d samples from %d VPs", len(samples), len(p.VPs))
	}
	for _, s := range samples {
		if s.RTT <= 0 {
			t.Fatalf("non-positive RTT %v", s.RTT)
		}
		if s.Site < 0 || s.Site > 1 {
			t.Fatalf("site %d out of range", s.Site)
		}
		// The sample's site agrees with ground truth.
		if want := net.SiteOfBlock(s.VP.Addr.Block()); want != s.Site {
			t.Fatalf("latency sample site %d, ground truth %d", s.Site, want)
		}
	}
	if MedianLatency(samples) <= 0 {
		t.Error("median latency should be positive")
	}
	if MedianLatency(nil) != 0 {
		t.Error("empty median should be 0")
	}
	// Determinism.
	again := p.MeasureLatency(net, 0)
	if len(again) != len(samples) || again[0].RTT != samples[0].RTT {
		t.Error("MeasureLatency not deterministic")
	}
}
