package monitor

// Fusion of the probe-free predictor (internal/predict) into the
// sampling epoch loop — DESIGN.md §15. Each predicted epoch partitions
// the strata three ways from the control-plane diff between the
// routing state the previous map was measured under and the one now
// deployed:
//
//   - strata touching the predicted flip set (closed under the
//     cross-block alias rule) escalate straight to a full stratum
//     re-probe — the diff says their observations changed, so the
//     sampled detour would only discover what is already known;
//   - strata with any block below the confidence cut, plus the canary
//     rotation's strata for this epoch, keep the ordinary sample and
//     the ordinary drift-escalation machinery;
//   - everything else skips probing entirely (predicted-stable): the
//     exactness contract says their blocks re-observe byte-identically,
//     so the carried map entries already ARE this epoch's observations.
//
// Mispredictions — drift observed where the predictor said stable —
// can only come from out-of-band perturbation (dataplane faults,
// assignment swaps behind the scenario's back). They surface through
// the same sampled-drift escalation as plain sampling mode, are
// counted as PredictMisses, and classify the epoch's events as cause
// predict-miss; the stitch self-heals the map. The canary rotation
// bounds detection latency to Config.PredictRefresh epochs.

import (
	"verfploeter/internal/colstore"
	"verfploeter/internal/predict"
	"verfploeter/internal/verfploeter"
)

// predictEpoch runs one predicted epoch. A nil catchment with a nil
// error means the predictor stood down (exactness preconditions
// failed — e.g. no reference assignment yet, or the topology mutated)
// and the caller must fall back to plain sampling.
func (ss *Session) predictEpoch(er *EpochResult) (*verfploeter.Catchment, error) {
	s, cfg, st, prev := ss.s, ss.cfg, ss.st, ss.prev
	pr := predict.Diff(s.Top, ss.prevAsg, s.Asg, predict.Config{Threshold: cfg.PredictThreshold})
	if !pr.Exact {
		return nil, nil
	}

	// Strata touching the predicted flip set escalate outright. The
	// affected blocks (pr.Affected, by index) are each flip and its
	// topology successor.
	affected := colstore.NewBitset(len(st.of))
	escalated := colstore.NewBitset(st.n)
	for _, f := range pr.Flips {
		for _, i := range []int{f.Index, f.Index + 1} {
			if i < len(st.of) {
				affected.Add(i)
				escalated.Add(int(st.of[i]))
			}
		}
	}

	// Canary rotation: these strata keep their full rotating sample this
	// epoch regardless of confidence, bounding misprediction-detection
	// latency to PredictRefresh epochs.
	canary := func(stratum int32) bool { return (er.Epoch+int(stratum))%cfg.PredictRefresh == 0 }

	// The probe set is block-granular: of the epoch's ordinary rotating
	// sample, keep canary-stratum blocks and individually low-confidence
	// blocks; drop blocks of escalating strata (their full re-probe
	// subsumes the sample). High-confidence blocks elsewhere are covered
	// by the exactness contract and receive no probes at all. Only ASes
	// that can contribute a probe are ranked: those outside escalating
	// strata that sit in a canary stratum or hold a low-confidence
	// block. An AS's sample does not depend on any other AS's, so the
	// probe set is what ranking every AS would give.
	sample := st.sampleSet(er.Epoch, cfg.Sample, s.Seed, func(a int) bool {
		stratum := st.byAS[a]
		if escalated.Contains(int(stratum)) {
			return false
		}
		if canary(stratum) {
			return true
		}
		for _, i := range st.ofAS(a) {
			if pr.LowConfidence(int(i)) {
				return true
			}
		}
		return false
	})
	probed := colstore.NewBitset(len(st.of))
	probedStrata := colstore.NewBitset(st.n)
	sample.Range(func(i int) bool {
		if stratum := st.of[i]; canary(stratum) || pr.LowConfidence(i) {
			probed.Add(i)
			probedStrata.Add(int(stratum))
		}
		return true
	})
	var obs *verfploeter.Catchment
	if probed.Len() > 0 {
		o, stats, err := s.MeasureSubset(cfg.RoundID, st.hitlistIDs(probed, false))
		if err != nil {
			return nil, err
		}
		obs = o
		er.Probes, er.Sampled = stats.Sent, stats.Targets
	}

	// Escalation: predicted-affected strata unconditionally; sampled
	// strata by the same observed-drift rule as plain sampling; the
	// global triggers (site anomaly, drift fraction) still force a full
	// re-sweep — they are the self-heal path for large out-of-band
	// events. The drift denominator counts probed topology blocks,
	// covered by the hitlist or not.
	if obs != nil {
		esc, drifted := st.driftedStrata(prev, obs, probed)
		esc.Range(func(stratum int) bool {
			escalated.Add(stratum)
			return true
		})
		if st.siteAnomaly(prev, obs, probed) ||
			float64(drifted) >= cfg.GlobalDrift*float64(max(1, probed.Len())) {
			escalated = st.allStrata()
			s.Obs.Counter("monitor_global_escalations", "epochs escalated to a full re-sweep").Inc()
		}
	}
	er.EscalatedStrata = escalated.Len()
	for stratum := 0; stratum < st.n; stratum++ {
		if !escalated.Contains(stratum) && !probedStrata.Contains(stratum) {
			er.PredictSkippedStrata++
		}
	}

	cur := prev.Clone()
	escSet, err := stitchEscalated(s, cfg, st, cur, escalated, er)
	if err != nil {
		return nil, err
	}

	// Score the prediction against everything actually re-observed:
	// a changed re-observation inside the predicted affected set is a
	// hit, outside it a miss. Skipped strata are by construction
	// unchanged in cur, so iterating the re-observed blocks covers every
	// prev→cur difference.
	score := func(i int, fresh *verfploeter.Catchment) {
		h := int(st.hl[i])
		if h < 0 || !changedAt(prev, fresh, h) {
			return
		}
		if affected.Contains(i) {
			er.PredictHits++
		} else {
			er.PredictMisses++
		}
	}
	if escSet != nil {
		escSet.Range(func(i int) bool {
			score(i, cur)
			return true
		})
	}
	// Sampled blocks outside escalated strata were carried in cur, so
	// their fresh witness is obs. (driftedStrata escalates every drifted
	// sampled block's stratum, so these are normally the confirmed-stable
	// ones — but scoring against cur would bake that assumption in.)
	probed.Range(func(i int) bool {
		if escSet == nil || !escSet.Contains(i) {
			score(i, obs)
		}
		return true
	})
	return cur, nil
}
