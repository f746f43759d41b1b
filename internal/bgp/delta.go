package bgp

// Incremental recomputation. The playbook-search and monitoring
// workloads (ROADMAP items 2 and 4) evaluate long sequences of
// announcement sets that differ from their predecessor by one or two
// entries — a prepend toggled, an upstream withdrawn. Cold ComputeEpoch
// pays full provider-phase flooding, full refine passes, and full block
// assignment each time; ComputeDelta replays only the dirty cone of the
// change and is byte-identical to the cold result by construction,
// because both paths evaluate each AS with the same pull functions over
// the same canonical neighbor order (bgp.go). DESIGN.md, "incremental
// convergence contract", states the invariants; the property tests in
// delta_test.go enforce them on random worlds, random diff sequences,
// and every size tier.
//
// The phase split mirrors the cold profile. Customer and peer phases
// are a fraction of a percent of convergence time, so the delta simply
// reruns them and diffs the outcome against prev's post-phase snapshot.
// The provider phase — flooding over the whole transit DAG — is
// adopted wholesale from prev and repaired by a wavefront that
// re-evaluates an AS only when a provider's recorded state actually
// changed. The refine loop recomputes only a cone around the
// phase-dirty ASes, grown when a recomputed AS's trajectory diverges
// from the one prev recorded (Table.byteMask); everyone else provably
// replays prev's byte trajectory and keeps prev's rows without looking
// at them. Assignment reuse is the same idea one layer down
// (AssignDelta).

import (
	"sort"

	"verfploeter/internal/parallel"
)

// scratch.mark bits used by the delta path.
const (
	flagAnnDirty uint8 = 1 << iota // upstream AS of a changed announcement
	flagCone                       // member of the refine recompute cone
	flagDiverged                   // refine trajectory diverged from prev's
	flagPhDirty                    // post-phase state differs (or may differ) from prev's
)

// ComputeDelta computes the converged table for anns by incremental
// recomputation from prev, which must be a table computed on the same
// topology at the same generation and epoch (the tie-break space).
// The result is byte-identical to ComputeEpoch(prev.Top, anns,
// prev.epoch); when the preconditions don't hold — topology mutated,
// prev predates the trajectory metadata — it transparently falls back
// to that cold compute. The returned table's Changed lists the ASes
// whose final route state differs from prev's, which AssignDelta and
// the cache layer use to reassign only affected blocks.
func ComputeDelta(prev *Table, anns []Announcement) *Table {
	if prev == nil {
		panic("bgp: ComputeDelta with nil predecessor")
	}
	top := prev.Top
	if prev.phClass == nil || prev.byteMask == nil || prev.gen != top.Generation() {
		return ComputeEpoch(top, anns, prev.epoch)
	}
	done := obsTimed("bgp-delta")
	c := newCompute(top, anns, prev.epoch)
	// The delta only arena-copies phase-1/2 rows and wavefront repairs —
	// provider-phase rows are adopted from prev by aliasing — so the cold
	// path's whole-topology chunk hint would mostly sit empty.
	c.phArena.hint = len(c.class)/4 + arenaMinChunk

	// Announcement-dirty upstream ASes, by positional diff: announcement
	// order is part of the converged output (offer order, entry
	// encoding), so a reorder is a change even with equal contents. A
	// changed announcement can affect its upstream's refine offers even
	// when the upstream's phase row is unchanged (the origin route may
	// lose phase selection but still place as AltSite), so these ASes
	// are force-included in the refine cone.
	mark := c.sc.mark
	for k := 0; k < len(anns) || k < len(prev.Anns); k++ {
		if k < len(anns) && k < len(prev.Anns) && anns[k] == prev.Anns[k] {
			continue
		}
		if k < len(anns) {
			mark[c.annAS[k]] |= flagAnnDirty
		}
		if k < len(prev.Anns) {
			if j := top.ASIndex(prev.Anns[k].UpstreamASN); j >= 0 {
				mark[j] |= flagAnnDirty
			}
		}
	}

	// Customer and peer phases: full rerun (cheap), then adopt prev's
	// provider-phase states and seed the repair wavefront with every AS
	// whose settled phase state differs from prev's snapshot.
	c.phaseCustomer()
	c.phasePeer()
	dPh, ok := c.providerDelta(prev)
	if !ok {
		c.finish()
		return ComputeEpoch(top, anns, prev.epoch) // wavefront cap tripped
	}

	cone := c.refineDelta(prev, dPh)
	c.finish()
	if o := obsHooks.Load(); o != nil {
		o.deltaComputes.Inc()
		o.deltaCone.Observe(float64(cone))
	}
	done()
	return c.Table
}

// sameRow is routesEq with an alias fast path for rows adopted from the
// predecessor table.
func sameRow(a, b []Route) bool {
	if len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) {
		return true
	}
	return routesEq(a, b)
}

// providerDelta adopts prev's provider-phase states for every AS the
// customer/peer rerun left unclassed, then repairs them with a
// levelHeap wavefront: an AS is re-evaluated (same pullProvider as the
// cold phase) when a provider's recorded state changed, and its own
// change propagates to its customers. Levels order processing by
// plausible settle length so a cone member is usually evaluated once;
// correctness never depends on the order because evaluation is a pure
// pull over current neighbor state, re-scheduled on every input change
// until nothing moves. Returns the post-phase dirty set — every AS
// whose settled state differs (or may differ: wavefront writes are
// recorded even if a later rewrite restores prev's bytes, which only
// widens the refine cone) from prev's snapshot — and ok=false if the
// paranoia cap trips (the caller falls back to a cold compute).
func (c *compute) providerDelta(prev *Table) (dPh []int32, ok bool) {
	sc := c.sc
	mark := sc.mark
	h := &sc.heap
	*h = (*h)[:0]
	dirty := func(i int32) {
		if mark[i]&flagPhDirty == 0 {
			mark[i] |= flagPhDirty
			dPh = append(dPh, i)
		}
	}
	for i := range c.class {
		switch {
		case c.class[i] != 0:
			// Settled by phases 1–2; final. If it differs from prev's
			// snapshot, its provider-phase consumers must re-pull.
			if c.class[i] != prev.phClass[i] || c.plen[i] != prev.phLen[i] ||
				!routesEq(c.cands[i], prev.phCands[i]) {
				dirty(int32(i))
				cust := c.g.as[i].cust
				for ni := range cust {
					h.push(levelItem{level: c.plen[i] + 1, asIdx: cust[ni].idx})
				}
			}
		case prev.phClass[i] == FromProvider:
			c.class[i] = FromProvider
			c.plen[i] = prev.phLen[i]
			c.cands[i] = prev.phCands[i]
		case prev.phClass[i] != 0:
			// Had a customer/peer route in prev, has none now: it may
			// pick up a provider route itself, and its customers — who
			// consumed its exports in prev's provider phase — must
			// re-pull even if this AS ends up with nothing.
			dirty(int32(i))
			h.push(levelItem{level: prev.phLen[i] + 1, asIdx: int32(i)})
			cust := c.g.as[i].cust
			for ni := range cust {
				h.push(levelItem{level: prev.phLen[i] + 2, asIdx: cust[ni].idx})
			}
		}
	}
	evals, cap8n := 0, 8*len(c.class)+64
	for len(*h) > 0 {
		x := h.pop().asIdx
		if cl := c.class[x]; cl == FromCustomer || cl == FromPeer {
			continue
		}
		if evals++; evals > cap8n {
			return nil, false
		}
		newL, row := c.pullProvider(int(x))
		oldClassed := c.class[x] != 0
		oldL := c.plen[x]
		if newL == 0 {
			if !oldClassed {
				continue
			}
			c.class[x] = 0
			c.plen[x] = 0
			c.cands[x] = nil
		} else {
			if oldClassed && newL == oldL && routesEq(row, c.cands[x]) {
				continue
			}
			c.class[x] = FromProvider
			c.plen[x] = newL
			c.cands[x] = c.phArena.copyIn(row)
		}
		dirty(x)
		lvl := newL
		if lvl == 0 || (oldClassed && oldL < lvl) {
			lvl = oldL
		}
		cust := c.g.as[x].cust
		for ni := range cust {
			j := cust[ni].idx
			if cl := c.class[j]; cl == FromCustomer || cl == FromPeer {
				continue
			}
			h.push(levelItem{level: lvl + 1, asIdx: j})
		}
	}
	return dPh, true
}

// refineDelta replays the refine fixed point over a recompute cone and
// splices everything else from prev. The cone starts as the closed
// neighborhood of the phase-dirty set (those ASes' rows, and everyone
// who reads them), every AS whose prev trajectory was still changing
// after pass 1 (prev.byteMask bits >= 1: its neighbors read its
// intermediate rows, so they must be materialized), and the
// announcement-dirty upstreams. It grows by the neighbors of any cone
// member whose recomputed trajectory diverges from the one prev
// recorded — detected exactly where prev's metadata pins the expected
// row (stable-by-pass ASes), conservatively otherwise. ASes never
// drawn into the cone provably reproduce prev's per-pass rows
// byte-for-byte, so their final Cands, AltSite, and byteMask are
// spliced from prev without evaluation. Returns the final cone size.
func (c *compute) refineDelta(prev *Table, dPh []int32) int {
	t := c.Table
	n := len(c.class)
	mark := c.sc.mark

	var cset []int32
	add := func(i int32) {
		if mark[i]&flagCone == 0 {
			mark[i] |= flagCone
			cset = append(cset, i)
		}
	}
	addNeighbors := func(i int32) {
		ag := &c.g.as[i]
		for ni := range ag.prov {
			add(ag.prov[ni].idx)
		}
		for ni := range ag.peer {
			add(ag.peer[ni].idx)
		}
		for ni := range ag.cust {
			add(ag.cust[ni].idx)
		}
	}
	for _, i := range dPh {
		add(i)
		addNeighbors(i)
	}
	for i := 0; i < n; i++ {
		if mark[i]&flagAnnDirty != 0 || prev.byteMask[i]&^1 != 0 {
			add(int32(i))
		}
	}

	// Pass-1 churn among ASes outside the cone: they change at pass 1
	// exactly when prev did (their trajectory is prev's), which the stop
	// rule must count even though nobody re-evaluates them. Later passes
	// need no such count — an out-of-cone AS changing after pass 1 would
	// be churn, and churn is in the cone from the start.
	counts0 := 0
	for i := 0; i < n; i++ {
		if mark[i]&flagCone == 0 && prev.byteMask[i]&1 != 0 {
			counts0++
		}
	}

	// One full-length view, not the cold path's ping-pong pair: cone
	// members' new rows are staged per-member during the parallel
	// evaluation (which only reads the view) and written back in the
	// sequential merge, so pass p+1 reads pass p's rows through the same
	// array. Out-of-cone entries stay aliased to prev's final rows — for
	// them, every per-pass row equals the final one (churn is in the
	// cone), so the single array serves as every pass's view at once and
	// is retained as t.Cands when the loop stops.
	view := make([][]Route, n)
	copy(view, prev.Cands)
	t.AltSite = make([]int16, n)
	copy(t.AltSite, prev.AltSite)
	t.byteMask = make([]uint8, n)

	in := c.cands // pass 1 reads the post-phase slabs, like cold pass 0
	ws := newRefineWorkers(t.NSite, len(cset))
	for pass := 1; ; pass++ {
		ws.startPass()
		members := cset // frozen for this pass; growth lands next pass
		flags := make([]uint8, len(members))
		rows := make([][]Route, len(members))
		parallel.ChunkedWorker(0, len(members), func(w, lo, hi int) {
			rw := &ws[w]
			for j := lo; j < hi; j++ {
				i := members[j]
				sel, alt := c.evalRefineAS(int(i), in, &rw.rs)
				row := rw.arena.copyIn(sel)
				rows[j] = row
				t.AltSite[i] = alt
				var f uint8
				if !routesEq(in[i], row) {
					f |= 1 // live: changed this pass
				}
				switch {
				case mark[i]&flagDiverged != 0:
					f |= 2 // sticky: conservative once diverged
				case prev.byteMask[i]>>uint(pass) == 0:
					// prev's row was final by this pass: exact check.
					if !routesEq(row, prev.Cands[i]) {
						f |= 2
					}
				default:
					f |= 2 // prev still evolving here; assume divergence
				}
				flags[j] = f
			}
		})
		liveAny := false
		var newlyDiverged []int32
		for j, f := range flags {
			i := members[j]
			view[i] = rows[j]
			if f&1 != 0 {
				liveAny = true
				t.byteMask[i] |= 1 << uint(pass-1)
			}
			if f&2 != 0 && mark[i]&flagDiverged == 0 {
				mark[i] |= flagDiverged
				newlyDiverged = append(newlyDiverged, i)
			}
		}
		if pass == 1 && counts0 > 0 {
			liveAny = true
		}
		t.passes = uint8(pass)
		if !liveAny || pass == maxRefinePasses {
			break
		}
		for _, i := range newlyDiverged {
			addNeighbors(i)
		}
		in = view
	}
	t.Cands = view

	// Out-of-cone ASes replay prev's trajectory; their mask is prev's,
	// clipped to the passes that actually ran this time.
	lim := uint8(0xff)
	if t.passes < 8 {
		lim = uint8(1)<<t.passes - 1
	}
	for i := 0; i < n; i++ {
		if mark[i]&flagCone == 0 {
			t.byteMask[i] = prev.byteMask[i] & lim
		}
	}

	changed := make([]int32, 0, len(cset))
	for _, i := range cset {
		if !sameRow(t.Cands[i], prev.Cands[i]) || t.AltSite[i] != prev.AltSite[i] {
			changed = append(changed, i)
		}
	}
	sort.Slice(changed, func(a, b int) bool { return changed[a] < changed[b] })
	t.Changed = changed
	// Retain the cone for predictor confidence (Table.ConeDistances);
	// non-nil even when empty so "delta with no cone" is distinguishable
	// from "cold compute".
	t.cone = append(make([]int32, 0, len(cset)), cset...)
	sort.Slice(t.cone, func(a, b int) bool { return t.cone[a] < t.cone[b] })
	return len(cset)
}
