package dataplane

import (
	"testing"

	"verfploeter/internal/faults"
)

// TestZeroRateProfileIsByteIdentical: installing a profile whose every
// rate is zero — seed set or not — must leave the captured reply
// stream and every counter identical to a run with no profile.
func TestZeroRateProfileIsByteIdentical(t *testing.T) {
	plain := newFixture(t, Impairments{}, 17)
	plain.probeAll(t)

	faulty := newFixture(t, Impairments{}, 17)
	faulty.net.SetFaults(faults.Profile{Seed: 99})
	faulty.probeAll(t)

	if plain.net.Stats() != faulty.net.Stats() {
		t.Errorf("stats diverge under a zero-rate profile:\nplain  %+v\nfaulty %+v",
			plain.net.Stats(), faulty.net.Stats())
	}
	for s := 0; s < 2; s++ {
		if len(plain.rx[s]) != len(faulty.rx[s]) {
			t.Fatalf("site %d captured %d vs %d replies", s, len(plain.rx[s]), len(faulty.rx[s]))
		}
		for i := range plain.rx[s] {
			if plain.rx[s][i] != faulty.rx[s][i] {
				t.Fatalf("site %d reply %d differs under a zero-rate profile", s, i)
			}
		}
	}
}

// TestLossProfileDropsAndCounts: loss rates reduce the reply stream and
// every drop lands in exactly one Fault* counter.
func TestLossProfileDropsAndCounts(t *testing.T) {
	plain := newFixture(t, Impairments{}, 17)
	plain.probeAll(t)

	lossy := newFixture(t, Impairments{}, 17)
	lossy.net.SetFaults(faults.Profile{
		ProbeLoss: 0.25, ReplyLoss: 0.10, SilentBlocks: 0.10, Seed: 17,
	})
	lossy.probeAll(t)

	plainReplies := plain.replies()
	lossyReplies := lossy.replies()
	if lossyReplies >= plainReplies {
		t.Errorf("loss profile did not reduce replies: %d vs %d", lossyReplies, plainReplies)
	}
	st := lossy.net.Stats()
	if st.FaultProbeLost == 0 || st.FaultReplyLost == 0 || st.FaultSilenced == 0 {
		t.Errorf("fault counters not populated: %+v", st)
	}
	if st.FaultRateLimited != 0 || st.FaultBlackouts != 0 {
		t.Errorf("disabled fault kinds counted: %+v", st)
	}
	// Loss rates land near their nominal values (generous bounds: one
	// tiny topology's worth of coins).
	probeLossRate := float64(st.FaultProbeLost) / float64(st.ProbesSent)
	if probeLossRate < 0.10 || probeLossRate > 0.40 {
		t.Errorf("probe loss rate %.3f, configured 0.25", probeLossRate)
	}
}

// TestRateLimitCapsRepliesPerRound: a /24's reply budget caps bursts
// within a round and reopens when the round advances.
func TestRateLimitCapsRepliesPerRound(t *testing.T) {
	f := newFixture(t, Impairments{}, 17)
	f.net.SetFaults(faults.Profile{RateLimit: 2, Seed: 5})

	// A block whose representative answers in rounds 0 and 1, so the
	// budget — not responsiveness churn — decides what comes back.
	target := measurementAddr() // sentinel: stays zero if none found
	for i := range f.top.Blocks {
		b := f.top.Blocks[i].Block
		f.net.SetRound(0)
		r0 := f.net.Responds(b)
		f.net.SetRound(1)
		r1 := f.net.Responds(b)
		f.net.SetRound(0)
		if r0 && r1 {
			target = b.Addr(1)
			break
		}
	}

	send := func(seq uint16) {
		if err := f.net.SendEcho(0, measurementAddr(), target, 7, seq); err != nil {
			t.Fatalf("SendEcho: %v", err)
		}
	}
	for seq := uint16(0); seq < 5; seq++ {
		send(seq)
	}
	if got := f.replies(); got != 2 {
		t.Errorf("rate limit 2 let %d replies through", got)
	}
	if st := f.net.Stats(); st.FaultRateLimited != 3 {
		t.Errorf("FaultRateLimited = %d, want 3", st.FaultRateLimited)
	}

	// New round, fresh budget.
	f.net.SetRound(1)
	send(100)
	if got := f.replies(); got != 3 {
		t.Errorf("budget did not reopen on round change: %d total replies", got)
	}
}

// TestBlackoutDarkensSites: with every site blacked out, no replies are
// captured and live anycast queries fail with ErrNoRoute.
func TestBlackoutDarkensSites(t *testing.T) {
	f := newFixture(t, Impairments{}, 17)
	f.net.SetFaults(faults.Profile{SiteBlackout: 1.0, Seed: 5})
	f.probeAll(t)

	if got := f.replies(); got != 0 {
		t.Errorf("blacked-out sites captured %d replies", got)
	}
	st := f.net.Stats()
	if st.FaultBlackouts == 0 {
		t.Error("no blackout drops counted")
	}

	for s := 0; s < 2; s++ {
		f.net.AttachSite(s, func(q []byte) []byte { return q })
	}
	_, _, err := f.net.QueryAnycast(f.top.Blocks[0].Block.Addr(1), []byte{0})
	if err == nil {
		t.Fatal("query to a blacked-out site must fail")
	}
	if st := f.net.Stats(); st.QueriesDropped == 0 {
		t.Error("dropped query not counted")
	}
}
