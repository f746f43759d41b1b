// Package monitor turns the one-shot mapper into a continuous catchment
// monitoring service — the operational loop behind the paper's B-Root
// story (§5.5's month-over-month drift, §6.1's traffic engineering):
// operators do not map once, they *watch* the map, re-running
// Verfploeter to see blocks flip sites and load shift when routing
// changes.
//
// The monitor runs scheduled sweep epochs on the virtual clock against a
// scenario, delta-encodes each epoch against its predecessor (full
// baseline plus per-epoch flip sets, persisted as dataset format v3 with
// time-travel reconstruction), and emits a typed drift event stream —
// block flips, per-site load shifts past a threshold, coverage drops,
// sites going dark — classifying causes where attributable: operator
// prepend changes and withdrawals are known, a site going silent without
// an operator action reads as a blackout, and the rest (tie-break drift)
// is unexplained.
//
// # Adaptive partial re-probing
//
// Probing every hitlist block every epoch wastes almost all of its
// budget on a stable Internet. The monitor instead hashes ASes into
// strata, probes a small deterministic per-AS sample each epoch, and
// escalates to a full re-probe only the strata whose sample diverged
// from the current map. Routing drift in this simulation is session
// (AS)-grained — prepends, withdrawals, and tie-break epochs move whole
// ASes — so a drifted stratum's sample almost surely witnesses the
// drift, and stitching escalated strata's fresh observations over the
// carried map reproduces the always-full-re-probe map byte for byte.
//
// The determinism contract that makes stitching sound: every epoch
// probes with the same RoundID and probe seed, so a block's observation
// (responsiveness, loss coins, alias coins, RTT) is a pure function of
// the current routing assignment — identical whether probed in a
// sample, an escalation, or a full sweep (see verfploeter.Config.Subset).
// Results are byte-identical at any worker count and under any fault
// profile.
package monitor

import (
	"errors"
	"fmt"
	"math"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/colstore"
	"verfploeter/internal/dataset"
	"verfploeter/internal/loadmodel"
	"verfploeter/internal/predict"
	"verfploeter/internal/querylog"
	"verfploeter/internal/scenario"
	"verfploeter/internal/verfploeter"
)

// Action is an operator-scheduled routing change: before measuring the
// given epoch, the monitor re-announces with the new per-site prepends
// and/or withdrawal mask. nil fields keep the current setting. These are
// *known* causes; world changes the operator did not schedule belong in
// scenario.OnEpoch hooks.
type Action struct {
	Epoch   int
	Prepend []int
	Down    []bool
}

// Config parameterizes a monitoring run.
type Config struct {
	// Epochs is the total number of sweep epochs including the epoch-0
	// baseline (default 4).
	Epochs int
	// Interval is the virtual time between epochs (default 15 min, the
	// paper's cleaning cutoff — back-to-back continuous mapping).
	Interval time.Duration
	// Sample is the per-AS sampled fraction of blocks each epoch, with a
	// floor of one block per AS; <= 0 disables partial re-probing and
	// every epoch sweeps the full hitlist. Default is full mode — callers
	// opt into sampling.
	Sample float64
	// Strata is the number of AS hash-strata for escalation granularity
	// (default 32). Smaller strata escalate less collateral volume but
	// take more bookkeeping.
	Strata int
	// RoundID is the ICMP ident shared by EVERY epoch's sweeps (default
	// 900). A fixed round is the determinism contract: per-block probe
	// noise is frozen, so cross-epoch drift isolates routing changes.
	RoundID uint16
	// LoadLog, when set, weighs load-shift events by the query log
	// instead of raw block counts.
	LoadLog *querylog.Log
	// LoadShift is the per-site load-share delta that raises an event
	// (default 0.03); CoverageDrop the mapped-fraction drop that raises
	// one (default 0.02).
	LoadShift    float64
	CoverageDrop float64
	// GlobalDrift is the fraction of sampled blocks showing drift beyond
	// which the epoch is treated as a global routing event and every
	// stratum escalates (default 0.02). Prepends and tie-break epochs
	// move blocks across many ASes at once — including blocks whose
	// stratum's sample happens to sit still — so partial escalation
	// cannot reproduce the full-re-probe map; a full sweep can, and the
	// event is worth it.
	GlobalDrift float64
	// Predict enables the probe-free fast path (internal/predict) on top
	// of sampling: each epoch the announcement diff between the previous
	// epoch's routing state and the current one is explained from the
	// control plane alone; strata whose predicted flip set is empty and
	// whose blocks all clear PredictThreshold skip even the sampled
	// re-probe, strata touching the predicted flip set escalate straight
	// to a full stratum re-probe, and low-confidence strata keep the
	// normal sample. Requires Sample > 0 (ignored in full mode); falls
	// back to plain sampling whenever the predictor's exactness
	// preconditions fail (e.g. topology generation changed).
	Predict bool
	// PredictThreshold is the per-block confidence cut for
	// predicted-stable skips (default predict.DefaultThreshold).
	PredictThreshold float64
	// PredictRefresh is the canary rotation period (default 8): stratum
	// s is re-witnessed by a real sampled probe at every epoch where
	// (epoch+s) % PredictRefresh == 0, so out-of-band perturbation the
	// control plane cannot see — the predict-miss case — is detected
	// within PredictRefresh epochs and the map self-heals through the
	// ordinary escalation machinery.
	PredictRefresh int
	// Actions is the operator's schedule of routing changes.
	Actions []Action
	// OnEvent, when set, observes each drift event as it is emitted.
	OnEvent func(dataset.Event)
	// Controller, when set, closes the measure→predict→act loop: it runs
	// at the end of every epoch — after measurement and event
	// classification — and may re-announce routing on the scenario (the
	// playbook engine does). A routing change it makes takes effect at the
	// next epoch's sweep and is classified there as CausePlaybook, unless
	// an operator Action at that epoch takes precedence. Epoch 0 calls the
	// controller with the baseline map and no events. A nil Controller
	// leaves the monitor's output byte-identical to earlier releases.
	Controller func(epoch int, cur *verfploeter.Catchment, events []dataset.Event)
}

func (cfg Config) fill() Config {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 15 * time.Minute
	}
	if cfg.Strata <= 0 {
		cfg.Strata = 32
	}
	if cfg.RoundID == 0 {
		cfg.RoundID = 900
	}
	if cfg.LoadShift <= 0 {
		cfg.LoadShift = 0.03
	}
	if cfg.CoverageDrop <= 0 {
		cfg.CoverageDrop = 0.02
	}
	if cfg.GlobalDrift <= 0 {
		cfg.GlobalDrift = 0.02
	}
	if cfg.PredictThreshold <= 0 {
		cfg.PredictThreshold = predict.DefaultThreshold
	}
	if cfg.PredictRefresh <= 0 {
		cfg.PredictRefresh = 8
	}
	return cfg
}

// EpochResult is one epoch's outcome.
type EpochResult struct {
	Epoch int
	Map   *verfploeter.Catchment
	// Probes actually sent (sample + escalation + retries); Sampled the
	// sample sweep's target count; EscalatedStrata how many strata
	// escalated to a full re-probe (0 in full mode).
	Probes          int
	Sampled         int
	EscalatedStrata int
	// Prediction accounting (zero unless Config.Predict):
	// PredictSkippedStrata counts strata that received no probes at all
	// this epoch (predicted stable at high confidence); PredictHits
	// re-observed changes the predictor called, PredictMisses
	// re-observed changes it declared stable — out-of-band perturbation,
	// recorded as cause predict-miss.
	PredictSkippedStrata int
	PredictHits          int
	PredictMisses        int
	Events               []dataset.Event
}

// Result is a finished monitoring run.
type Result struct {
	Epochs []EpochResult
	Series *dataset.Series
	// Events flattens every epoch's drift events in order.
	Events []dataset.Event
	// TotalProbes sums all epochs; BaselineProbes is epoch 0 alone — the
	// per-epoch cost the sampling mode avoids.
	TotalProbes    int
	BaselineProbes int
	// Prediction totals across all epochs (zero unless Config.Predict).
	PredictHits          int
	PredictMisses        int
	PredictSkippedStrata int
}

// Session is an open-ended monitoring campaign driven one epoch at a
// time — the stepwise form of Run that long-running services (vp-server)
// build on. Each Step advances the virtual clock, runs the epoch hooks
// and operator actions, measures (full or sampled), classifies drift,
// and extends the delta-encoded series; a campaign of N Steps produces
// state byte-identical to Run with Epochs=N, including the persisted
// series file. A Session is not safe for concurrent Steps; callers
// serialize the write side (readers consume the returned EpochResults).
type Session struct {
	s   *scenario.Scenario
	cfg Config
	st  *strata

	res    *Result
	series *dataset.Series

	prev *verfploeter.Catchment
	// prevAsg is the assignment the previous epoch's map was measured
	// under — the predictor's reference routing state. Captured right
	// after each measurement, so Controller changes land in the next
	// epoch's diff.
	prevAsg *bgp.Assignment
	// playbookActed carries a Controller routing change into the NEXT
	// epoch's cause classification: the change is applied now but only
	// measured then.
	playbookActed bool
	epoch         int
	forceFull     bool
}

// NewSession prepares a stepwise monitoring campaign on the scenario.
// The scenario is mutated by Steps (routing changes, clock advance);
// run on a Fork to keep the original pristine. Config.Epochs only
// bounds Run — a Session steps as long as the caller keeps calling.
func NewSession(s *scenario.Scenario, cfg Config) *Session {
	cfg = cfg.fill()
	return &Session{
		s: s, cfg: cfg, st: buildStrata(s, cfg.Strata),
		res: &Result{},
		series: &dataset.Series{
			Meta: dataset.Meta{
				ID: fmt.Sprintf("%s-monitor", s.Name), Scenario: s.Name,
				Sites: s.SiteCodes(), RoundID: cfg.RoundID, Seed: s.Seed,
			},
			Strata: cfg.Strata, SampleRate: math.Max(cfg.Sample, 0),
		},
	}
}

// Epochs returns the number of completed epochs (epoch 0 included).
func (ss *Session) Epochs() int { return ss.epoch }

// Config returns the session's filled configuration.
func (ss *Session) Config() Config { return ss.cfg }

// ForceFull makes the next Step sweep the full hitlist even in sampling
// mode — the operator's "re-probe everything now" trigger. It is a
// no-op in full mode and resets after one Step.
func (ss *Session) ForceFull() { ss.forceFull = true }

// Result returns the campaign so far, series attached. The returned
// value shares state with the session; epochs appended by later Steps
// appear in it.
func (ss *Session) Result() *Result {
	ss.res.Series = ss.series
	return ss.res
}

// Series returns the delta-encoded series accumulated so far.
func (ss *Session) Series() *dataset.Series { return ss.series }

// Step runs the next epoch and returns its result (a copy — safe to
// hand to concurrent readers while the session keeps stepping).
func (ss *Session) Step() (EpochResult, error) {
	s, cfg, e := ss.s, ss.cfg, ss.epoch
	if e > 0 {
		s.Clock.Advance(cfg.Interval)
	}
	// The world moves first (hooks: tie-break drift, blackouts), then
	// the operator acts, then we measure.
	epochSpan := s.Obs.StartSpan("epoch", e)
	s.BeginEpoch(e)
	prependChanged, downChanged := applyActions(s, cfg.Actions, e)

	er := EpochResult{Epoch: e}
	if err := ss.checkIndexed(); err != nil {
		return er, fmt.Errorf("monitor: epoch %d: %w", e, err)
	}
	var cur *verfploeter.Catchment
	full := e == 0 || cfg.Sample <= 0 || ss.forceFull
	ss.forceFull = false
	if full {
		c, stats, err := s.MeasureSubset(cfg.RoundID, nil)
		if err != nil {
			return er, fmt.Errorf("monitor: epoch %d: %w", e, err)
		}
		cur = c
		er.Probes, er.Sampled = stats.Sent, stats.Targets
	} else {
		var c *verfploeter.Catchment
		var err error
		if cfg.Predict {
			// Probe-free fast path; c == nil means the predictor stood
			// down (preconditions failed) and plain sampling takes over.
			c, err = ss.predictEpoch(&er)
		}
		if err == nil && c == nil {
			c, err = sampleEpoch(s, cfg, ss.st, ss.prev, &er)
		}
		if err != nil {
			return er, fmt.Errorf("monitor: epoch %d: %w", e, err)
		}
		cur = c
	}
	er.Map = cur
	ss.prevAsg = s.Asg

	if e == 0 {
		ss.series.Baseline = cur
		ss.series.BaselineProbes = er.Probes
		ss.res.BaselineProbes = er.Probes
	} else {
		se, tr := deltaEpoch(e, s.Hitlist.Index(), ss.prev, cur, &er)
		clSpan := s.Obs.StartSpan("classify", e)
		er.Events = classifyEvents(e, s, cfg, ss.prev, cur, tr, prependChanged, downChanged, ss.playbookActed, er.PredictMisses > 0)
		clSpan.End()
		se.Events = er.Events
		ss.series.Epochs = append(ss.series.Epochs, se)
		for _, ev := range er.Events {
			if cfg.OnEvent != nil {
				cfg.OnEvent(ev)
			}
			ss.res.Events = append(ss.res.Events, ev)
		}
	}
	ss.res.TotalProbes += er.Probes
	ss.res.PredictHits += er.PredictHits
	ss.res.PredictMisses += er.PredictMisses
	ss.res.PredictSkippedStrata += er.PredictSkippedStrata
	ss.res.Epochs = append(ss.res.Epochs, er)
	if s.Obs != nil {
		s.Obs.Counter("monitor_epochs", "monitoring epochs completed").Inc()
		s.Obs.Counter("monitor_events", "drift events the monitor classified").AddInt(len(er.Events))
		s.Obs.Counter("monitor_escalated_strata", "strata escalated to a full re-probe").AddInt(er.EscalatedStrata)
		if cfg.Predict {
			s.Obs.Counter("predict_hits", "re-observed changes the predictor called").AddInt(er.PredictHits)
			s.Obs.Counter("predict_misses", "re-observed changes the predictor declared stable").AddInt(er.PredictMisses)
			s.Obs.Counter("predict_skipped_strata", "strata skipped as predicted-stable").AddInt(er.PredictSkippedStrata)
		}
	}
	ss.playbookActed = false
	if cfg.Controller != nil {
		// Snapshot the routing knobs around the controller so its
		// changes — and only its changes — are attributable next epoch.
		prePre, preDown := s.Prepends(), s.DownSites()
		cfg.Controller(e, cur, er.Events)
		ss.playbookActed = !equalInts(s.Prepends(), prePre) ||
			!equalBools(s.DownSites(), preDown)
	}
	epochSpan.End()
	ss.prev = cur
	ss.epoch++
	return er, nil
}

// Run executes a monitoring campaign on the scenario. The scenario is
// mutated (routing changes, clock advance); run on a Fork to keep the
// original pristine.
func Run(s *scenario.Scenario, cfg Config) (*Result, error) {
	ss := NewSession(s, cfg)
	for e := 0; e < ss.cfg.Epochs; e++ {
		if _, err := ss.Step(); err != nil {
			// Partial result, series unattached — exactly the historic
			// mid-campaign failure contract.
			return ss.res, err
		}
	}
	return ss.Result(), nil
}

// sampleEpoch is the adaptive partial re-probe: probe the epoch's
// deterministic per-AS sample, escalate every stratum whose sample
// diverged from the carried map to a full stratum re-probe, and stitch.
func sampleEpoch(s *scenario.Scenario, cfg Config, st *strata,
	prev *verfploeter.Catchment, er *EpochResult) (*verfploeter.Catchment, error) {

	sample := st.sampleSet(er.Epoch, cfg.Sample, s.Seed, nil)
	obs, stats, err := s.MeasureSubset(cfg.RoundID, st.hitlistIDs(sample, false))
	if err != nil {
		return nil, err
	}
	er.Probes, er.Sampled = stats.Sent, stats.Targets

	// The drift denominator counts sampled topology blocks, covered by
	// the hitlist or not.
	escalated, drifted := st.driftedStrata(prev, obs, sample)
	if st.siteAnomaly(prev, obs, sample) ||
		float64(drifted) >= cfg.GlobalDrift*float64(max(1, sample.Len())) {
		// Two signatures of a *global* routing event: a site appearing in
		// or vanishing from the sample (withdrawal, blackout,
		// restoration), or drift across more than GlobalDrift of the
		// sampled blocks (prepend, tie-break epoch). Either moves blocks
		// in strata whose own sample happens to sit still, so partial
		// escalation would strand stale entries; the event costs a full
		// sweep either way.
		escalated = st.allStrata()
		s.Obs.Counter("monitor_global_escalations", "epochs escalated to a full re-sweep").Inc()
	}
	er.EscalatedStrata = escalated.Len()
	cur := prev.Clone()
	if _, err := stitchEscalated(s, cfg, st, cur, escalated, er); err != nil {
		return nil, err
	}
	return cur, nil
}

// stitchEscalated re-probes every block of the escalated strata (plus
// topology predecessors, for the cross-block alias rule) and stitches
// the fresh observations into cur in place; un-escalated entries carry
// over untouched. Returns the escalated block indices (nil when no
// stratum escalated) so callers can tell re-observed blocks from
// carried ones.
func stitchEscalated(s *scenario.Scenario, cfg Config, st *strata,
	cur *verfploeter.Catchment, escalated *colstore.Bitset, er *EpochResult) (*colstore.Bitset, error) {

	if escalated.Len() == 0 {
		return nil, nil
	}
	// A cross-block aliased reply can only come from the block's
	// topology predecessor (see dataplane), so probing the
	// predecessors too reproduces the full sweep's per-block
	// observations exactly; their own entries are dropped in the
	// stitch.
	escSet := st.blocksOf(escalated)
	full, fstats, err := s.MeasureSubset(cfg.RoundID, st.hitlistIDs(escSet, true))
	if err != nil {
		return nil, err
	}
	er.Probes += fstats.Sent
	// Stitch: escalated strata take the fresh observation wholesale
	// (including blocks that went silent), the rest carries over.
	escSet.Range(func(i int) bool {
		if h := st.hl[i]; h >= 0 {
			cur.CopyAt(full, int(h))
		}
		return true
	})
	return escSet, nil
}

// applyActions runs the operator schedule for epoch e, reporting which
// knobs actually changed (for cause classification).
func applyActions(s *scenario.Scenario, actions []Action, e int) (prependChanged, downChanged bool) {
	for _, a := range actions {
		if a.Epoch != e {
			continue
		}
		curPre, curDown := s.Prepends(), s.DownSites()
		newPre, newDown := curPre, curDown
		if a.Prepend != nil {
			newPre = a.Prepend
		}
		if a.Down != nil {
			newDown = a.Down
		}
		prependChanged = prependChanged || !equalInts(newPre, curPre)
		downChanged = downChanged || !equalBools(newDown, curDown)
		s.ReannounceFull(newPre, newDown, s.RoutingEpoch())
	}
	return prependChanged, downChanged
}

// ErrIndex reports state the id-keyed epoch cannot read: a catchment
// not held in columns over the scenario's hitlist index, or strata
// built for another topology or hitlist than the scenario now has.
var ErrIndex = errors.New("monitor: catchment or strata not indexed over the scenario's hitlist")

// checkIndexed is the epoch's one guard for its id-level reads: the
// carried map and the strata must be keyed by the scenario's current
// hitlist ids (fresh sweeps are, by construction).
func (ss *Session) checkIndexed() error {
	ix := ss.s.Hitlist.Index()
	if !ss.st.current(ss.s) {
		return fmt.Errorf("%w: strata are stale", ErrIndex)
	}
	if ss.prev != nil && !ss.prev.IndexedOver(ix) {
		return fmt.Errorf("%w: carried map", ErrIndex)
	}
	return nil
}

// transition is what classifyEvents needs to know about prev → cur:
// the Figure 9 counts (verfploeter.Diff) and each map's per-site block
// tallies (Catchment.Counts).
type transition struct {
	verfploeter.DiffStats
	prevCounts, curCounts []int
}

// deltaEpoch encodes cur against prev in one ascending pass over the
// two catchments' columns (both over ix): changed/added/removed blocks
// in sorted order for deterministic series files, plus the transition
// counts classifyEvents needs.
func deltaEpoch(e int, ix *colstore.Index, prev, cur *verfploeter.Catchment, er *EpochResult) (dataset.SeriesEpoch, transition) {
	se := dataset.SeriesEpoch{
		Epoch: e, Probes: er.Probes,
		SampledTargets: er.Sampled, EscalatedStrata: er.EscalatedStrata,
	}
	tr := transition{prevCounts: make([]int, prev.NSite), curCounts: make([]int, cur.NSite)}
	d := &tr.DiffStats
	for id := 0; id < ix.Len(); id++ {
		ps, pok := prev.SiteAt(id)
		cs, cok := cur.SiteAt(id)
		if pok {
			tr.prevCounts[ps]++
		}
		if cok {
			tr.curCounts[cs]++
		}
		switch {
		case !cok:
			if pok {
				d.ToNR++
				se.Removed = append(se.Removed, ix.At(id))
			}
			continue
		case !pok:
			d.FromNR++
		case ps != cs:
			d.Flipped++
		default:
			d.Stable++
			if prev.RTTAt(id) == cur.RTTAt(id) {
				continue
			}
		}
		delta := dataset.Delta{Block: ix.At(id), Site: int16(cs), RTT: cur.RTTAt(id)}
		if pok {
			se.Changed = append(se.Changed, delta)
		} else {
			se.Added = append(se.Added, delta)
		}
	}
	return se, tr
}

// classifyEvents turns the prev→cur transition into the epoch's typed
// drift events, all tagged with the epoch's best-attributed cause.
func classifyEvents(e int, s *scenario.Scenario, cfg Config, prev, cur *verfploeter.Catchment,
	tr transition, prependChanged, downChanged, playbook, predictMiss bool) []dataset.Event {

	d, prevCounts, curCounts := tr.DiffStats, tr.prevCounts, tr.curCounts
	var darkened, restored []int
	for site := range prevCounts {
		switch {
		case prevCounts[site] > 0 && curCounts[site] == 0:
			darkened = append(darkened, site)
		case prevCounts[site] == 0 && curCounts[site] > 0:
			restored = append(restored, site)
		}
	}

	cause := dataset.CauseUnexplained
	switch {
	case downChanged:
		cause = dataset.CauseWithdraw
	case prependChanged:
		cause = dataset.CausePrepend
	case playbook:
		// The playbook engine re-announced at the end of the previous
		// epoch; this epoch's drift is its doing, whatever knob it turned.
		cause = dataset.CausePlaybook
	case len(darkened) > 0:
		// The operator did nothing, yet a site lost every block: that is
		// what a data-plane blackout (or upstream failure) looks like
		// from the prober's seat.
		cause = dataset.CauseBlackout
	case predictMiss:
		// The predictor declared this epoch stable and the escalation
		// machinery observed drift anyway: out-of-band perturbation the
		// control plane could not see. Sharper than "unexplained" — it
		// carries the predictor's testimony that routing did not move.
		cause = dataset.CausePredictMiss
	}

	var events []dataset.Event
	if d.Flipped > 0 {
		events = append(events, dataset.Event{
			Epoch: e, Type: dataset.EventFlips, Cause: cause, Site: -1,
			Blocks:    d.Flipped,
			Magnitude: float64(d.Flipped) / float64(max(1, prev.Len())),
		})
	}
	prevShare, curShare := shares(prev, prevCounts, cfg.LoadLog), shares(cur, curCounts, cfg.LoadLog)
	for site := range curShare {
		delta := curShare[site] - prevShare[site]
		if math.Abs(delta) >= cfg.LoadShift {
			events = append(events, dataset.Event{
				Epoch: e, Type: dataset.EventLoadShift, Cause: cause, Site: site,
				Blocks:    absInt(curCounts[site] - prevCounts[site]),
				Magnitude: delta,
			})
		}
	}
	if hl := s.Hitlist.Len(); hl > 0 {
		drop := float64(prev.Len()-cur.Len()) / float64(hl)
		if drop >= cfg.CoverageDrop {
			events = append(events, dataset.Event{
				Epoch: e, Type: dataset.EventCoverageDrop, Cause: cause, Site: -1,
				Blocks: d.ToNR, Magnitude: drop,
			})
		}
	}
	for _, site := range darkened {
		events = append(events, dataset.Event{
			Epoch: e, Type: dataset.EventSiteDark, Cause: cause, Site: site,
			Blocks: prevCounts[site], Magnitude: prevShare[site],
		})
	}
	for _, site := range restored {
		events = append(events, dataset.Event{
			Epoch: e, Type: dataset.EventSiteRestored, Cause: cause, Site: site,
			Blocks: curCounts[site], Magnitude: curShare[site],
		})
	}
	return events
}

// shares returns per-site load shares: query-weighted when a log is
// supplied, block-count shares otherwise — from the catchment's site
// tallies, the same division Catchment.Fraction makes.
func shares(c *verfploeter.Catchment, counts []int, log *querylog.Log) []float64 {
	out := make([]float64, c.NSite)
	if log != nil {
		est := loadmodel.Predict(c, log, loadmodel.ByQueries)
		for site := range out {
			out[site] = est.Fraction(site)
		}
		return out
	}
	if total := c.Len(); total > 0 {
		for site := range out {
			out[site] = float64(counts[site]) / float64(total)
		}
	}
	return out
}

// --- small helpers ----------------------------------------------------

// mix64 is a splitmix64-style hash for strata and sample ranking.
func mix64(a, b uint64) uint64 {
	x := a ^ b*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
