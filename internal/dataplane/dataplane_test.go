package dataplane

import (
	"errors"
	"testing"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/topology"
	"verfploeter/internal/vclock"
)

const anycastPrefixStr = "198.18.0.0/24"

func measurementAddr() ipv4.Addr { return ipv4.MustParseAddr("198.18.0.1") }

// reply is one capture the reply sink received.
type reply struct {
	from       ipv4.Addr
	ident, seq uint16
	at         time.Duration
}

type fixture struct {
	top   *topology.Topology
	clock *vclock.Clock
	net   *Net
	rx    [][]reply // per site, captured replies
}

func newFixture(t *testing.T, imp Impairments, seed uint64) *fixture {
	t.Helper()
	top := topology.Generate(topology.DefaultParams(topology.SizeTiny, seed))
	anns := []bgp.Announcement{
		{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118},
		{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
	}
	asg := bgp.Compute(top, anns).Assign()
	clock := vclock.New()
	n := New(Config{
		Top: top, Clock: clock, Seed: seed, Impair: imp,
		AnycastPrefix: ipv4.MustParsePrefix(anycastPrefixStr),
	})
	n.SetAssignment(asg)
	f := &fixture{top: top, clock: clock, net: n, rx: make([][]reply, 2)}
	for s := 0; s < 2; s++ {
		n.AttachSite(s, nil)
	}
	n.SetReplySink(func(site int, from ipv4.Addr, ident, seq uint16, at time.Duration) {
		f.rx[site] = append(f.rx[site], reply{from, ident, seq, at})
	})
	return f
}

func (f *fixture) replies() int { return len(f.rx[0]) + len(f.rx[1]) }

func (f *fixture) probeAll(t *testing.T) {
	t.Helper()
	for i := range f.top.Blocks {
		if err := f.net.SendEcho(0, measurementAddr(), f.top.Blocks[i].Block.Addr(1), 7, uint16(i)); err != nil {
			t.Fatalf("SendEcho: %v", err)
		}
	}
}

func TestProbeRepliesArriveAtCatchmentSite(t *testing.T) {
	imp := Impairments{BaseRTT: time.Millisecond} // no noise
	f := newFixture(t, imp, 11)
	f.probeAll(t)

	got0, got1 := len(f.rx[0]), len(f.rx[1])
	if got0 == 0 || got1 == 0 {
		t.Fatalf("both sites should capture replies, got %d/%d", got0, got1)
	}
	// Every reply must have arrived at the block's assigned site,
	// echoing the probe's ident and sequence after a positive delay.
	for s := 0; s < 2; s++ {
		for _, r := range f.rx[s] {
			if r.ident != 7 || r.at <= 0 {
				t.Fatalf("reply = %+v", r)
			}
			if bi := f.top.BlockIndex(r.from.Block()); bi < 0 || uint16(bi) != r.seq {
				t.Fatalf("reply from %v carries seq %d, probe of block %d", r.from, r.seq, bi)
			}
			if want := f.net.SiteOfBlock(r.from.Block()); want != s {
				t.Fatalf("reply from %v captured at site %d, assignment says %d",
					r.from, s, want)
			}
		}
	}
}

func TestResponseRateMatchesResponsiveness(t *testing.T) {
	f := newFixture(t, Impairments{}, 13)
	f.probeAll(t)
	frac := float64(f.replies()) / float64(len(f.top.Blocks))
	if frac < 0.35 || frac > 0.70 {
		t.Errorf("response fraction = %.3f, want ~0.45-0.60", frac)
	}
	st := f.net.Stats()
	if st.ProbesSent != uint64(len(f.top.Blocks)) {
		t.Errorf("ProbesSent = %d", st.ProbesSent)
	}
	if st.Unresponsive == 0 {
		t.Error("expected some unresponsive blocks")
	}
	// Responds() ground truth agrees with observed replies.
	for i := range f.top.Blocks {
		b := f.top.Blocks[i].Block
		found := false
		for s := 0; s < 2 && !found; s++ {
			for _, r := range f.rx[s] {
				if r.from.Block() == b {
					found = true
					break
				}
			}
		}
		// Aliased replies make src≠target, so only check the forward
		// implication with aliasing off (it is, in this fixture).
		if f.net.Responds(b) && !found {
			t.Fatalf("block %v should respond but no reply captured", b)
		}
	}
}

func TestDuplicatesAndAliases(t *testing.T) {
	imp := DefaultImpairments()
	imp.LateFrac = 0
	f := newFixture(t, imp, 17)
	f.probeAll(t)
	st := f.net.Stats()
	if st.Duplicates == 0 {
		t.Error("expected duplicate replies at default impairments")
	}
	if st.Aliased == 0 {
		t.Error("expected aliased replies at default impairments")
	}
	if st.Replies <= st.ProbesSent/3 {
		t.Errorf("replies = %d of %d probes", st.Replies, st.ProbesSent)
	}
}

func TestLateRepliesAreLate(t *testing.T) {
	imp := Impairments{LateFrac: 1, LateDelay: 16 * time.Minute}
	f := newFixture(t, imp, 19)
	for i := range f.top.Blocks {
		if err := f.net.SendEcho(0, measurementAddr(), f.top.Blocks[i].Block.Addr(1), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if f.replies() == 0 {
		t.Fatal("late replies never arrived")
	}
	for s := 0; s < 2; s++ {
		for _, r := range f.rx[s] {
			if r.at < 16*time.Minute {
				t.Fatalf("reply from %v arrived at %v, before the late delay", r.from, r.at)
			}
		}
	}
}

func TestSendEchoValidation(t *testing.T) {
	f := newFixture(t, Impairments{}, 23)

	// Wrong source.
	err := f.net.SendEcho(0, ipv4.MustParseAddr("10.0.0.1"), f.top.Blocks[0].Block.Addr(1), 1, 0)
	if !errors.Is(err, ErrBadSource) {
		t.Errorf("bad source: %v", err)
	}
	if f.net.Stats().BadPackets != 1 {
		t.Error("BadPackets not counted")
	}

	// Unknown destination block: silently absorbed.
	unrouted := ipv4.MustParseAddr("223.1.2.3")
	if err := f.net.SendEcho(0, measurementAddr(), unrouted, 1, 0); err != nil {
		t.Errorf("unrouted dst: %v", err)
	}
	if f.net.Stats().UnknownBlocks != 1 {
		t.Error("UnknownBlocks not counted")
	}

	// No assignment installed.
	n2 := New(Config{Top: f.top, Clock: f.clock, AnycastPrefix: ipv4.MustParsePrefix(anycastPrefixStr)})
	if err := n2.SendEcho(0, measurementAddr(), unrouted, 1, 0); !errors.Is(err, ErrNoAssignment) {
		t.Errorf("no assignment: %v", err)
	}
}

// TestUnattachedSiteCountsUnresponsive: a reply whose catchment site is
// not attached is never captured and counts as Unresponsive, on the Net
// and on its forks, which inherit the attached-site count.
func TestUnattachedSiteCountsUnresponsive(t *testing.T) {
	both := newFixture(t, Impairments{}, 13)
	both.probeAll(t)

	one := newFixture(t, Impairments{}, 13)
	one.net.dns = one.net.dns[:1] // only site 0 attached
	fork := one.net.Fork(vclock.New())
	var forkRx int
	fork.SetReplySink(func(int, ipv4.Addr, uint16, uint16, time.Duration) { forkRx++ })
	for _, n := range []*Net{one.net, fork} {
		for i := range one.top.Blocks {
			if err := n.SendEcho(0, measurementAddr(), one.top.Blocks[i].Block.Addr(1), 7, uint16(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(one.rx[1]) != 0 || len(one.rx[0]) != len(both.rx[0]) || forkRx != len(both.rx[0]) {
		t.Fatalf("captured %d/%d (fork %d), want %d/0", len(one.rx[0]), len(one.rx[1]), forkRx, len(both.rx[0]))
	}
	st, want := one.net.Stats(), both.net.Stats()
	if fork.Stats() != st {
		t.Errorf("fork stats %+v, parent %+v", fork.Stats(), st)
	}
	if st.Unresponsive != want.Unresponsive+uint64(len(both.rx[1])) || st.Replies != want.Replies-uint64(len(both.rx[1])) {
		t.Errorf("one site attached: %+v; both attached: %+v", st, want)
	}
}

func TestQueryAnycastRouting(t *testing.T) {
	f := newFixture(t, Impairments{}, 29)
	for s := 0; s < 2; s++ {
		s := s
		f.net.AttachSite(s, func(q []byte) []byte {
			return append([]byte{byte(s)}, q...)
		})
	}
	for i := 0; i < len(f.top.Blocks); i += 13 {
		from := f.top.Blocks[i].Block.Addr(53)
		resp, site, err := f.net.QueryAnycast(from, []byte{0xaa})
		if err != nil {
			t.Fatal(err)
		}
		if want := f.net.SiteOfBlock(from.Block()); want != site {
			t.Fatalf("query routed to %d, assignment says %d", site, want)
		}
		if len(resp) != 2 || resp[0] != byte(site) || resp[1] != 0xaa {
			t.Fatalf("handler response corrupted: %v", resp)
		}
	}
	// Unknown client.
	if _, _, err := f.net.QueryAnycast(ipv4.MustParseAddr("223.9.9.9"), nil); !errors.Is(err, ErrNoRoute) {
		t.Errorf("unrouted client: %v", err)
	}
}

func TestRoundChangesChurnResponsiveness(t *testing.T) {
	f := newFixture(t, Impairments{}, 31)
	changed := 0
	for i := range f.top.Blocks {
		b := f.top.Blocks[i].Block
		f.net.SetRound(0)
		r0 := f.net.Responds(b)
		f.net.SetRound(1)
		if f.net.Responds(b) != r0 {
			changed++
		}
	}
	if changed == 0 {
		t.Error("responsiveness should churn between rounds")
	}
	if changed > len(f.top.Blocks)/2 {
		t.Errorf("churn too violent: %d of %d changed", changed, len(f.top.Blocks))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Stats {
		f := newFixture(t, DefaultImpairments(), 37)
		f.probeAll(t)
		return f.net.Stats()
	}
	if run() != run() {
		t.Error("identical seeds must give identical stats")
	}
}

func TestTestPrefixRouting(t *testing.T) {
	top := topology.Generate(topology.DefaultParams(topology.SizeTiny, 51))
	prodAnns := []bgp.Announcement{
		{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118},
		{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
	}
	// Test prefix announced MIA-only: catchments must differ.
	testAnns := []bgp.Announcement{
		{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118, Prepend: 3},
		{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
	}
	clock := vclock.New()
	n := New(Config{
		Top: top, Clock: clock, Seed: 51,
		AnycastPrefix: ipv4.MustParsePrefix("198.18.0.0/24"),
		TestPrefix:    ipv4.MustParsePrefix("198.18.1.0/24"),
	})
	n.SetAssignment(bgp.Compute(top, prodAnns).Assign())

	var rx [2]int
	for s := 0; s < 2; s++ {
		n.AttachSite(s, nil)
	}
	n.SetReplySink(func(site int, _ ipv4.Addr, _, _ uint16, _ time.Duration) { rx[site]++ })

	// Probing from the test prefix before announcing it fails.
	tgt := top.Blocks[0].Block.Addr(1)
	if err := n.SendEcho(0, ipv4.MustParseAddr("198.18.1.1"), tgt, 1, 0); !errors.Is(err, ErrNoAssignment) {
		t.Fatalf("test probe without assignment: %v", err)
	}

	n.SetTestAssignment(bgp.Compute(top, testAnns).Assign())

	// Probe every block from both prefixes; the test-prefix replies
	// should skew far more to site 1 (LAX prepended +3 on test).
	var prod, test [2]int
	for i := range top.Blocks {
		a := top.Blocks[i].Block.Addr(1)
		rx = [2]int{}
		if err := n.SendEcho(0, ipv4.MustParseAddr("198.18.0.1"), a, 1, 0); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			prod[s] += rx[s]
		}
		rx = [2]int{}
		if err := n.SendEcho(0, ipv4.MustParseAddr("198.18.1.1"), a, 2, 0); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			test[s] += rx[s]
		}
	}
	prodFrac := float64(prod[0]) / float64(prod[0]+prod[1])
	testFrac := float64(test[0]) / float64(test[0]+test[1])
	if testFrac >= prodFrac {
		t.Errorf("test prefix (LAX+3) share %.3f should be below production %.3f", testFrac, prodFrac)
	}
}
