// Package bgp computes anycast catchments over the synthetic topology:
// which anycast site every AS — and every /24 block — routes to.
//
// The model is standard Gao–Rexford policy routing, the same forces that
// shape real catchments in the paper:
//
//   - valley-free export: routes learned from customers are announced to
//     everyone; routes learned from peers or providers only to customers;
//   - local preference: customer routes beat peer routes beat provider
//     routes regardless of AS-path length;
//   - AS-path length decides within a class, and origin-side prepending
//     (§6.1's traffic-engineering experiment) inflates it;
//   - deterministic tie-breaks stand in for router IDs;
//   - hot-potato egress: a multi-PoP AS with several equally good routes
//     exits at the PoP closest to each traffic source, which is what
//     splits large ASes across catchments (§6.2);
//   - a small set of ASes ignores prepending (§6.1 observes traffic that
//     stays at MIA even at MIA+3).
//
// Propagation is evaluated as a level-graded fixed point: every AS's
// per-phase state (class, settled length, candidate set) is a pure
// function of its neighbors' states, pulled in one canonical order —
// origins in announcement order, then neighbors in topology-declared
// geometry order, sessions in session order. Cold computation
// (ComputeEpoch) evaluates the whole graph level by level; incremental
// recomputation (ComputeDelta) re-evaluates only the dirty cone of a
// changed announcement set with the same per-AS functions, which is why
// the two produce byte-identical tables (see DESIGN.md, "incremental
// convergence contract").
//
// The paper emphasizes that Verfploeter does not model BGP to predict
// catchments — it measures a deployment. Here the roles are inverted:
// this package is the "real Internet" being measured, and the Verfploeter
// core on top of it genuinely measures rather than inspecting this
// package's tables (see DESIGN.md §2).
package bgp

import (
	"fmt"
	"math"

	"verfploeter/internal/parallel"
	"verfploeter/internal/topology"
)

// RelClass ranks how a route was learned; higher is preferred.
type RelClass uint8

const (
	// FromProvider routes are learned from a transit provider.
	FromProvider RelClass = iota + 1
	// FromPeer routes are learned across a settlement-free peering.
	FromPeer
	// FromCustomer routes are learned from a paying customer (or are the
	// site's own origination) and are always preferred.
	FromCustomer
)

func (c RelClass) String() string {
	switch c {
	case FromCustomer:
		return "customer"
	case FromPeer:
		return "peer"
	case FromProvider:
		return "provider"
	}
	return fmt.Sprintf("relclass(%d)", uint8(c))
}

// Announcement is one anycast site's BGP origination: the service AS
// announces the shared prefix to UpstreamASN at the site's location,
// optionally prepending its own AS several extra times.
type Announcement struct {
	Site        int    // site index, dense from 0
	UpstreamASN uint32 // host network the site connects through
	Lat, Lon    float64
	Prepend     int // extra path elements (0 = no prepending)
}

// Route is one usable path to the anycast prefix as seen by some AS.
type Route struct {
	Site    int
	Len     int    // AS-path length including prepending
	BaseLen int    // AS-path length without prepending
	From    uint32 // neighbor ASN the route was learned from (0 = origin)
	Class   RelClass
	// EntryLat/Lon is where traffic following this route leaves the AS —
	// the coordinate hot-potato selection measures distance to.
	EntryLat, EntryLon float64
	// entry indexes the same point into the precomputed session geometry:
	// >= 0 is an index into the holding AS's PoPs; < 0 encodes origin
	// announcement -(entry+1), whose coordinates need not be a PoP.
	entry int32
}

// Table holds the converged routing state for one configuration of
// announcements. Compute builds it; it is immutable afterwards.
type Table struct {
	Top   *topology.Topology
	Anns  []Announcement
	NSite int
	// Cands[i] lists the equally-best routes AS i retains after policy
	// selection (usually one; several when hot-potato splits apply).
	Cands [][]Route
	// AltSite[i] is the best *losing* route's site for AS i — the next
	// entry in its RIB, reached when a flapping or load-balanced link
	// diverts traffic off the best path (§6.3). -1 when every offer
	// leads to the same site.
	AltSite []int16
	// Changed lists, ascending, the ASes whose final route state (Cands
	// or AltSite) differs from the predecessor table this one was
	// incrementally derived from. nil on cold computes ("unknown — treat
	// everything as changed"). AssignDelta uses it to reassign only the
	// affected blocks.
	Changed []int32

	epoch uint64 // tie-break generation; see ComputeEpoch
	gen   uint64 // topology generation the table was computed at

	// cone is the refine recompute cone of the delta that produced this
	// table (sorted ascending); nil on cold computes. See DirtyCone.
	cone []int32

	// Post-phase snapshot and refine trajectory, retained for
	// ComputeDelta: phClass/phLen/phCands are the per-AS states after the
	// three propagation phases (refine pass 0's input), byteMask bit p
	// records whether the AS's candidate row changed byte-wise at refine
	// pass p+1, and passes is how many refine passes ran.
	phClass  []RelClass
	phLen    []int32
	phCands  [][]Route
	byteMask []uint8
	passes   uint8
}

// compute carries one convergence run's working state: the table being
// built, the topology's session geometry, flat per-AS slabs (class,
// settled length, candidate row — retained on the Table afterwards), and
// the small announcement-dependent tables the geometry cannot know.
type compute struct {
	*Table
	g *geometry

	// Struct-of-arrays propagation state, indexed by AS index. These are
	// the same backing arrays as Table.phClass/phLen/phCands.
	class []RelClass
	plen  []int32
	cands [][]Route

	phArena routeArena // backing store for retained candidate rows

	// annDist[k][m] is GeoDistance from PoP m of announcement k's
	// upstream AS to the announcement's coordinates. Origin routes only
	// ever sit in their upstream's RIB, so these are the only
	// announcement-entry distances exports can ask for.
	annDist [][]float64
	annAS   []int32
	// originFlat holds the origin routes in announcement order; origin[i]
	// groups the same routes by upstream AS i (usually nil, announcement
	// order within an AS).
	originFlat []Route
	origin     [][]Route

	sc *scratch
}

// Compute runs route propagation for the given announcements and returns
// the converged table. It panics on unknown upstream ASNs: scenario
// wiring errors should fail fast.
func Compute(top *topology.Topology, anns []Announcement) *Table {
	return ComputeEpoch(top, anns, 0)
}

// ComputeEpoch computes routing for a given epoch. Epochs model the
// Internet's slow drift (§5.5 observes B-Root's catchment moving 5.4
// points in a month): the same topology and announcements, but
// equal-cost tie-breaks — the IGP costs, router IDs, and fine-grained
// policies that shuffle underneath BGP — re-rolled per epoch.
func ComputeEpoch(top *topology.Topology, anns []Announcement, epoch uint64) *Table {
	defer obsTimed("bgp-compute")()
	c := newCompute(top, anns, epoch)
	c.phaseCustomer()
	c.phasePeer()
	c.phaseProvider()
	c.refine()
	c.finish()
	return c.Table
}

// validateAnns panics on malformed announcements and returns the site
// count.
func validateAnns(top *topology.Topology, anns []Announcement) int {
	nSite := 0
	for _, a := range anns {
		if top.ASIndex(a.UpstreamASN) < 0 {
			panic(fmt.Sprintf("bgp: announcement for site %d references unknown ASN %d", a.Site, a.UpstreamASN))
		}
		if a.Prepend < 0 {
			panic("bgp: negative prepend")
		}
		if a.Site+1 > nSite {
			nSite = a.Site + 1
		}
	}
	return nSite
}

func newCompute(top *topology.Topology, anns []Announcement, epoch uint64) *compute {
	nSite := validateAnns(top, anns)
	n := len(top.ASes)
	t := &Table{
		Top: top, Anns: anns, NSite: nSite, epoch: epoch, gen: top.Generation(),
		phClass: make([]RelClass, n),
		phLen:   make([]int32, n),
		phCands: make([][]Route, n),
	}
	c := &compute{
		Table: t, g: geometryFor(top),
		class: t.phClass, plen: t.phLen, cands: t.phCands,
		phArena: newRouteArena(n + n/2),
		sc:      getScratch(n),
	}
	c.initAnnouncements()
	return c
}

// finish returns pooled scratch; the slabs stay on the Table as the
// post-phase snapshot ComputeDelta diffs against.
func (c *compute) finish() {
	c.sc.release()
	c.sc = nil
}

// initAnnouncements builds the announcement-dependent tables: origin
// routes grouped by upstream AS, and the meet-to-announcement distance
// rows exportInto reads for entry < 0 candidates. A handful of
// GeoDistance calls per compute (|anns| × upstream PoPs), versus the
// per-export-event inner products the old code paid.
func (c *compute) initAnnouncements() {
	c.annDist = make([][]float64, len(c.Anns))
	c.annAS = make([]int32, len(c.Anns))
	c.origin = c.sc.originSlab(len(c.Top.ASes))
	for k := range c.Anns {
		a := &c.Anns[k]
		idx := c.Top.ASIndex(a.UpstreamASN)
		c.annAS[k] = int32(idx)
		pops := c.Top.ASes[idx].PoPs
		d := make([]float64, len(pops))
		for m := range pops {
			d[m] = topology.GeoDistance(pops[m].Lat, pops[m].Lon, a.Lat, a.Lon)
		}
		c.annDist[k] = d
		r := Route{
			Site: a.Site, Len: 1 + a.Prepend, BaseLen: 1,
			From: 0, Class: FromCustomer,
			EntryLat: a.Lat, EntryLon: a.Lon, entry: int32(-k - 1),
		}
		c.originFlat = append(c.originFlat, r)
		if len(c.origin[idx]) == 0 {
			c.sc.originSet = append(c.sc.originSet, int32(idx))
		}
		c.origin[idx] = append(c.origin[idx], r)
	}
}

// maxRefinePasses bounds the tie-diversity fixed-point iteration; the
// catchment graph's diameter is small, so a handful of passes suffices.
// byteMask's uint8 width depends on this staying <= 8.
const maxRefinePasses = 8

// sessionRadius (in GeoDistance degree-units) is how close two networks'
// PoPs must be to interconnect there; roughly metro-to-country scale.
const sessionRadius = 20.0

// sameCandSites reports whether two candidate rows select the same
// (site, neighbor) pairs — the site-level stability predicate. The
// refine loop's convergence test is the stricter byte-level routesEq
// (flat.go), which implies this one.
func sameCandSites(a, b []Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Site != b[i].Site || a[i].From != b[i].From {
			return false
		}
	}
	return true
}

// --- pull evaluators ------------------------------------------------
//
// Each phase's per-AS state is a pure function of neighbor states: the
// cheapest offered path length, and every offer at exactly that length,
// deduplicated by (neighbor, site) with the first offer in canonical
// order winning. Canonical order is: origins in announcement order, then
// neighbors in geometry order, sessions in session order. Both the cold
// level-synchronous drivers and the delta wavefront call these same
// evaluators, which is what makes their outputs byte-identical.

// offerMerge folds one offer at length l into the running cheapest-level
// candidate buffer.
func offerMerge(best int32, buf []Route, l int32, r Route) (int32, []Route) {
	switch {
	case best == 0 || l < best:
		return l, append(buf[:0], r)
	case l > best:
		return best, buf
	}
	for k := range buf {
		if buf[k].From == r.From && buf[k].Site == r.Site {
			return best, buf // first retained (neighbor, site) wins
		}
	}
	return best, append(buf, r)
}

// pullFrom gathers AS i's offers from the given neighbor list, keeping
// only neighbors whose class is at least lo, continuing from (best, buf).
func (c *compute) pullFrom(best int32, buf []Route, i int, nbs []nbr, lo RelClass) (int32, []Route) {
	for ni := range nbs {
		nb := &nbs[ni]
		j := nb.idx
		if c.class[j] < lo {
			continue
		}
		l := c.plen[j] + 1
		if best != 0 && l > best {
			continue
		}
		c.sc.exp = c.exportInto(c.sc.exp[:0], int(j), i, nb.rev, c.cands[j], c.plen[j])
		for _, r := range c.sc.exp {
			best, buf = offerMerge(best, buf, l, r)
		}
	}
	return best, buf
}

// pullCustomer evaluates AS i's customer-phase state: its own
// originations plus customer-learned routes exported up by customers.
// Returns (0, nil) when i has no customer-side route.
func (c *compute) pullCustomer(i int) (int32, []Route) {
	buf := c.sc.offers[:0]
	best := int32(0)
	for _, r := range c.origin[i] {
		best, buf = offerMerge(best, buf, int32(r.Len), r)
	}
	best, buf = c.pullFrom(best, buf, i, c.g.as[i].cust, FromCustomer)
	c.sc.offers = buf
	return best, buf
}

// pullPeer evaluates AS i's peer-phase state: customer routes handed one
// hop across peerings (valley-free: peer routes are never re-exported).
func (c *compute) pullPeer(i int) (int32, []Route) {
	best, buf := c.pullFrom(0, c.sc.offers[:0], i, c.g.as[i].peer, FromCustomer)
	c.sc.offers = buf
	return best, buf
}

// pullProvider evaluates AS i's provider-phase state: routes of any
// class flooded down by its providers.
func (c *compute) pullProvider(i int) (int32, []Route) {
	best, buf := c.pullFrom(0, c.sc.offers[:0], i, c.g.as[i].prov, FromProvider)
	c.sc.offers = buf
	return best, buf
}

// --- level-synchronous cold phases ----------------------------------

// phaseCustomer floods customer-learned routes upward
// (customer→provider), settling whole path-length levels at once. An AS
// is scheduled at level L when an offer at length L can exist; since
// every offer at L comes from a neighbor settled at L-1 (or an origin),
// a scheduled AS's pull sees its complete cheapest-level offer set.
func (c *compute) phaseCustomer() {
	sc := c.sc
	sc.resetSched()
	for k := range c.originFlat {
		sc.schedule(int32(c.originFlat[k].Len), c.annAS[k])
	}
	for L := 0; L < len(sc.sched); L++ {
		for bi := 0; bi < len(sc.sched[L]); bi++ {
			x := sc.sched[L][bi]
			if c.class[x] != 0 {
				continue // settled at a cheaper level
			}
			l, row := c.pullCustomer(int(x))
			if int(l) != L {
				continue // superseded schedule; re-settles at its own level
			}
			c.class[x] = FromCustomer
			c.plen[x] = l
			c.cands[x] = c.phArena.copyIn(row)
			prov := c.g.as[x].prov
			for ni := range prov {
				if p := prov[ni].idx; c.class[p] == 0 {
					sc.schedule(l+1, p)
				}
			}
		}
	}
}

// phasePeer hands customer routes one hop across peerings to ASes that
// have no customer route of their own. Single-step: no propagation, so
// one ascending sweep evaluates every AS exactly once.
func (c *compute) phasePeer() {
	for i := range c.class {
		if c.class[i] == FromCustomer {
			continue
		}
		l, row := c.pullPeer(i)
		if l == 0 {
			continue
		}
		c.class[i] = FromPeer
		c.plen[i] = l
		c.cands[i] = c.phArena.copyIn(row)
	}
}

// phaseProvider floods routes downward (provider→customer) to ASes that
// still have nothing better, level-synchronously like phaseCustomer.
func (c *compute) phaseProvider() {
	sc := c.sc
	sc.resetSched()
	for i := range c.class {
		if c.class[i] == 0 {
			continue
		}
		cust := c.g.as[i].cust
		for ni := range cust {
			if j := cust[ni].idx; c.class[j] == 0 {
				sc.schedule(c.plen[i]+1, j)
			}
		}
	}
	for L := 0; L < len(sc.sched); L++ {
		for bi := 0; bi < len(sc.sched[L]); bi++ {
			x := sc.sched[L][bi]
			if c.class[x] != 0 {
				continue
			}
			l, row := c.pullProvider(int(x))
			if int(l) != L {
				continue
			}
			c.class[x] = FromProvider
			c.plen[x] = l
			c.cands[x] = c.phArena.copyIn(row)
			cust := c.g.as[x].cust
			for ni := range cust {
				if j := cust[ni].idx; c.class[j] == 0 {
					sc.schedule(l+1, j)
				}
			}
		}
	}
}

// --- refine ----------------------------------------------------------

// refineScratch is one worker's working set for refine-pass
// evaluation.
type refineScratch struct {
	offers, exp, sel []Route
	winning          []bool
}

// refineWorker is one pool worker's state for the refine passes:
// evaluation scratch plus an arena for the rows it keeps. A compute
// allocates one per worker, and every chunk that worker runs, in every
// pass, reuses it, so the allocation count does not grow with the
// number of chunks (about four per worker).
type refineWorker struct {
	rs    refineScratch
	arena routeArena
}

type refineWorkers []refineWorker

// newRefineWorkers sizes each worker's arena for its share of rows
// (ASes) per pass, and carves every worker's scratch out of one slab
// per type, with room for refineScratchRoutes routes per buffer before
// append has to grow it.
func newRefineWorkers(nSite, rows int) refineWorkers {
	ws := make(refineWorkers, parallel.Workers(0))
	winning := make([]bool, len(ws)*nSite)
	routes := make([]Route, 3*len(ws)*refineScratchRoutes)
	buf := func(k int) []Route {
		return routes[k*refineScratchRoutes : k*refineScratchRoutes : (k+1)*refineScratchRoutes]
	}
	for w := range ws {
		ws[w].rs = refineScratch{
			offers: buf(3 * w), exp: buf(3*w + 1), sel: buf(3*w + 2),
			winning: winning[w*nSite : (w+1)*nSite : (w+1)*nSite],
		}
		ws[w].arena = newRouteArena(2 * rows / len(ws))
	}
	return ws
}

// startPass starts every worker's arena on a fresh chunk, so the rows
// a pass keeps never share a chunk with an earlier pass's dead rows: a
// Table — which the route cache may keep for a long time — retains
// only its final rows.
func (ws refineWorkers) startPass() {
	for w := range ws {
		ws[w].arena.cur = nil
	}
}

// refineScratchRoutes is each scratch buffer's starting capacity; a
// buffer that append grows past it keeps its new size for the rest of
// the compute.
const refineScratchRoutes = 64

// evalRefineAS computes one AS's refine-pass output from view (the
// previous pass's candidate rows for every AS): candidate row (in the
// caller's scratch — copy before retaining) and AltSite. It rebuilds the
// AS's full offer set from its neighbors' frozen class/len and
// view-supplied candidate rows, applying the AS's own policy (including
// prepend blindness) and keeping all equal-cost winners so hot-potato
// block assignment can split the AS.
func (c *compute) evalRefineAS(i int, view [][]Route, rs *refineScratch) ([]Route, int16) {
	ag := &c.g.as[i]
	offers := rs.offers[:0]
	// Own origination(s): the service AS is a direct customer.
	offers = append(offers, c.origin[i]...)
	for ni := range ag.cust {
		nb := &ag.cust[ni]
		if c.class[nb.idx] == FromCustomer {
			rs.exp = c.exportInto(rs.exp[:0], int(nb.idx), i, nb.rev, view[nb.idx], c.plen[nb.idx])
			for _, r := range rs.exp {
				r.Class = FromCustomer
				offers = append(offers, r)
			}
		}
	}
	for ni := range ag.peer {
		nb := &ag.peer[ni]
		if c.class[nb.idx] == FromCustomer {
			rs.exp = c.exportInto(rs.exp[:0], int(nb.idx), i, nb.rev, view[nb.idx], c.plen[nb.idx])
			for _, r := range rs.exp {
				r.Class = FromPeer
				offers = append(offers, r)
			}
		}
	}
	for ni := range ag.prov {
		nb := &ag.prov[ni]
		if c.class[nb.idx] != 0 {
			rs.exp = c.exportInto(rs.exp[:0], int(nb.idx), i, nb.rev, view[nb.idx], c.plen[nb.idx])
			for _, r := range rs.exp {
				r.Class = FromProvider
				offers = append(offers, r)
			}
		}
	}
	rs.offers = offers
	if len(offers) == 0 {
		return nil, -1
	}
	sel := selectBestInto(rs.sel[:0], offers, c.Top.ASes[i].IgnorePrepend)
	rs.sel = sel
	return sel, altSite(offers, sel, rs.winning)
}

// refine iterates per-AS re-selection to a byte-level fixed point. The
// three phases settle each AS's class and path length exactly, but tie
// *diversity* — which equally-good sites an AS retains — needs the
// candidate sets refreshed from neighbors until nothing changes; it
// converges quickly because classes and lengths are frozen. Each pass
// records, per AS, whether the candidate row changed byte-wise
// (Table.byteMask) — the trajectory metadata ComputeDelta needs to
// replay only a dirty cone of a later announcement change.
//
// The rebuild is embarrassingly parallel: AS i reads the (frozen) slabs
// plus the previous pass's rows and writes only its own outputs, so it
// runs on the parallel pool with per-worker scratch and arenas; results
// are identical at any width.
func (c *compute) refine() {
	t := c.Table
	n := len(c.class)
	t.AltSite = make([]int16, n)
	t.byteMask = make([]uint8, n)
	changed := make([]uint8, n)
	bufA := make([][]Route, n)
	var bufB [][]Route // allocated lazily; most worlds converge in 2 passes

	in := c.cands // pass 0 reads the post-phase snapshot
	out := bufA
	var final [][]Route
	ws := newRefineWorkers(t.NSite, n)
	for pass := 0; pass < maxRefinePasses; pass++ {
		ws.startPass()
		parallel.ChunkedWorker(0, n, func(w, lo, hi int) {
			rw := &ws[w]
			for i := lo; i < hi; i++ {
				sel, alt := c.evalRefineAS(i, in, &rw.rs)
				out[i] = rw.arena.copyIn(sel)
				t.AltSite[i] = alt
				if routesEq(in[i], out[i]) {
					changed[i] = 0
				} else {
					changed[i] = 1
				}
			}
		})
		anyChanged := false
		bit := uint8(1) << pass
		for i := range changed {
			if changed[i] != 0 {
				t.byteMask[i] |= bit
				anyChanged = true
			}
		}
		t.passes = uint8(pass + 1)
		final = out
		if !anyChanged || pass == maxRefinePasses-1 {
			break
		}
		if bufB == nil {
			bufB = make([][]Route, n)
		}
		if pass == 0 {
			in, out = out, bufB
		} else {
			in, out = out, in // two-pass-old rows are dead; reuse headers
		}
	}
	t.Cands = final
}

// altSite finds the preferred fallback site: the best offer whose site
// differs from every winning candidate (by class, then length). winning
// is caller-owned scratch of length NSite.
func altSite(offers, winners []Route, winning []bool) int16 {
	for i := range winning {
		winning[i] = false
	}
	for _, w := range winners {
		winning[w.Site] = true
	}
	best := -1
	var bestR Route
	for _, o := range offers {
		if winning[o.Site] {
			continue
		}
		if best < 0 || o.Class > bestR.Class ||
			(o.Class == bestR.Class && o.Len < bestR.Len) {
			best = o.Site
			bestR = o
		}
	}
	return int16(best)
}

// selectBestInto applies local-pref then path length (BaseLen for
// prepend-ignoring ASes), retaining all ties, appending into dst
// (caller-owned scratch). The result is insertion-sorted by (Site,
// From); duplicates of one (Site, From) pair — which differ only in
// entry coordinates — keep the first offer in canonical offer order.
func selectBestInto(dst []Route, offers []Route, ignorePrepend bool) []Route {
	cmpLen := func(r Route) int {
		if ignorePrepend {
			return r.BaseLen
		}
		return r.Len
	}
	best := offers[0]
	for _, r := range offers[1:] {
		if r.Class > best.Class || (r.Class == best.Class && cmpLen(r) < cmpLen(best)) {
			best = r
		}
	}
	for _, r := range offers {
		if r.Class != best.Class || cmpLen(r) != cmpLen(best) {
			continue
		}
		pos := len(dst)
		for k := range dst {
			if dst[k].Site > r.Site || (dst[k].Site == r.Site && dst[k].From >= r.From) {
				pos = k
				break
			}
		}
		if pos < len(dst) && dst[pos].Site == r.Site && dst[pos].From == r.From {
			continue // first offer for this (Site, From) wins
		}
		dst = append(dst, Route{})
		copy(dst[pos+1:], dst[pos:])
		dst[pos] = r
	}
	return dst
}

// exportInto computes what src announces to dst, one route per BGP
// session, appending to out (a caller-owned scratch buffer) and returning
// the extended slice. srcCands/srcLen are the exporting AS's candidate
// row and settled length — phase slabs during propagation, the previous
// pass's view during refine. Sessions come from the topology's
// precomputed geometry: each dst PoP forms a session with src's nearest
// PoP, and over that session src announces the candidate whose own exit
// is nearest the session (src hot-potatoes too). A multi-PoP neighbor
// therefore hears several equally long routes — possibly toward
// different sites — which is exactly how site diversity disseminates on
// the real Internet. Exact-distance ties break by a deterministic
// per-session hash standing in for IGP metrics and router IDs, so one
// site doesn't globally win every tie.
func (c *compute) exportInto(out []Route, srcIdx, dstIdx int, sess []session, srcCands []Route, srcLen int32) []Route {
	if len(srcCands) == 0 {
		return out
	}
	src := &c.Top.ASes[srcIdx]
	dst := &c.Top.ASes[dstIdx]
	pd := c.g.popDist[srcIdx]
	np := int32(len(src.PoPs))
	start := len(out)
	for _, s := range sess {
		// src's announcement over this session.
		best := srcCands[0]
		bd := math.Inf(1)
		bh := ^uint64(0)
		for _, cand := range srcCands {
			var d float64
			if e := cand.entry; e >= 0 {
				d = pd[s.meet*np+e]
			} else {
				k := -e - 1
				if c.annAS[k] != int32(srcIdx) {
					panic("bgp: origin route escaped its upstream AS")
				}
				d = c.annDist[k][s.meet]
			}
			h := tieHash(src.ASN, dst.ASN, cand.Site, c.epoch)
			if d < bd || (d == bd && h < bh) {
				bd, bh = d, h
				best = cand
			}
		}
		dp := &dst.PoPs[s.dstPoP]
		r := Route{
			Site:     best.Site,
			Len:      int(srcLen) + 1,
			BaseLen:  best.BaseLen + 1,
			From:     src.ASN,
			Class:    best.Class, // caller overrides with receiver's view
			EntryLat: dp.Lat,
			EntryLon: dp.Lon,
			entry:    s.dstPoP,
		}
		dup := false
		for _, prev := range out[start:] {
			if prev.Site == r.Site && prev.EntryLat == r.EntryLat && prev.EntryLon == r.EntryLon {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}

// tieHash breaks exact-distance export ties deterministically but
// diversely across (src, dst, site) triples; epoch re-rolls every tie,
// modeling month-scale routing drift.
func tieHash(src, dst uint32, site int, epoch uint64) uint64 {
	h := uint64(src)<<40 ^ uint64(dst)<<8 ^ uint64(site) ^ epoch<<52
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}
