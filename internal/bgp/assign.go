package bgp

import (
	"math"

	"verfploeter/internal/parallel"
	"verfploeter/internal/topology"
)

// Assignment maps every /24 block to its anycast site, including the
// per-round instability the paper studies in §6.3: blocks whose AS keeps
// several equal-cost exits may flip between two sites round to round
// (load-balanced or flappy egress links, heavily concentrated in a few
// ASes — Table 7).
type Assignment struct {
	Table *Table
	// Primary[i] is the steady-state site of Top.Blocks[i]; -1 when the
	// owning AS received no route at all.
	Primary []int16
	// Secondary[i] is the alternate site a flapping block swings to;
	// -1 when the block is firmly single-homed onto Primary.
	Secondary []int16
	// FlipProb[i] is the per-round probability of using Secondary.
	FlipProb []float32
	// Margin[i] is the tie-break margin of the final selection: the
	// ratio of the nearest other-site candidate's distance to the
	// winner's, clamped to [1, marginClear]. marginClear means "no
	// contender" (single-site AS, unrouted block, or a winner at least
	// marginClear times closer); values near 1 mean the selection was
	// decided by a hair. Only meaningful alongside FlipProb — flappy
	// blocks (FlipProb > 0) are unstable regardless of margin. The
	// predictor (internal/predict) reads this as its first confidence
	// input.
	Margin []float32
}

// marginClear is the Margin ceiling: any other-site candidate at least
// this many times farther than the winner (or absent entirely) counts
// as a decisive selection.
const marginClear = 4

// flip tuning: see §6.3 calibration notes in EXPERIMENTS.md.
const (
	flapProbPerWeight = 0.0016
	flapProbCap       = 0.25
	baselineFlipProb  = 0.0002 // split blocks at near-tied distance
	nearTieRatio      = 1.15
)

// Assign computes per-block sites via hot-potato selection: each block
// exits its AS at the block's own PoP, choosing the candidate route whose
// entry point is geographically nearest. It runs on all CPUs; use
// AssignWorkers to bound the pool.
func (t *Table) Assign() *Assignment {
	return t.AssignWorkers(0)
}

// AssignWorkers is Assign with an explicit worker-pool bound (<= 0 means
// one worker per CPU). Every block's selection is independent and writes
// only its own slice index, so the result is identical for any worker
// count.
func (t *Table) AssignWorkers(workers int) *Assignment {
	defer obsTimed("assign")()
	blocks := t.Top.Blocks
	a := &Assignment{
		Table:     t,
		Primary:   make([]int16, len(blocks)),
		Secondary: make([]int16, len(blocks)),
		FlipProb:  make([]float32, len(blocks)),
		Margin:    make([]float32, len(blocks)),
	}
	dist := workerDist(workers, t.NSite)
	parallel.ChunkedWorker(workers, len(blocks), func(w, lo, hi int) {
		d := dist[w]
		for i := lo; i < hi; i++ {
			d = t.assignBlock(a, i, d)
		}
		dist[w] = d
	})
	return a
}

// workerDist returns assignBlock's distance scratch for each pool
// worker, carved from one slab with room for nSite candidates each;
// append grows a worker's buffer past that if an AS holds more.
func workerDist(workers, nSite int) [][]float64 {
	dist := make([][]float64, parallel.Workers(workers))
	slab := make([]float64, len(dist)*nSite)
	for w := range dist {
		dist[w] = slab[w*nSite : w*nSite : (w+1)*nSite]
	}
	return dist
}

// assignBlock computes block i's site assignment into a. dist is
// caller-owned scratch, returned so its growth is kept across blocks.
// Writes only index i, so any partition of blocks across workers — the
// full sweep or AssignDelta's changed subset — produces identical
// columns.
func (t *Table) assignBlock(a *Assignment, i int, dist []float64) []float64 {
	b := &t.Top.Blocks[i]
	cands := t.Cands[b.ASIdx]
	if len(cands) == 0 {
		a.Primary[i], a.Secondary[i] = -1, -1
		a.FlipProb[i] = 0
		a.Margin[i] = marginClear
		return dist
	}
	owner := &t.Top.ASes[b.ASIdx]

	// Rank candidates by distance from the block's own location —
	// finer-grained than its PoP, so borderline blocks inside one
	// AS can straddle two exits.
	dist = dist[:0]
	for _, c := range cands {
		dist = append(dist, topology.GeoDistance(float64(b.Lat), float64(b.Lon), c.EntryLat, c.EntryLon))
	}

	// Pass 1: the hot-potato winner — nearest entry, lower site
	// number on exact distance ties.
	best, bestD := 0, dist[0]
	for ci := 1; ci < len(cands); ci++ {
		d := dist[ci]
		if d < bestD || (d == bestD && cands[ci].Site < cands[best].Site) {
			best, bestD = ci, d
		}
	}
	// Pass 2: nearest candidate at any *other* site. Scanning
	// only after the winner is fixed makes the choice independent
	// of candidate order: a one-pass scan can discard a
	// distinct-site candidate against a provisional best that a
	// same-site closer candidate later replaces.
	second, secondD := -1, math.Inf(1)
	for ci, c := range cands {
		if c.Site == cands[best].Site {
			continue
		}
		d := dist[ci]
		if d < secondD || (d == secondD && c.Site < cands[second].Site) {
			second, secondD = ci, d
		}
	}
	a.Primary[i] = int16(cands[best].Site)
	a.FlipProb[i] = 0
	a.Margin[i] = marginClear
	if second >= 0 {
		switch {
		case bestD > 0:
			if r := secondD / bestD; r < marginClear {
				a.Margin[i] = float32(r)
			}
		case secondD == 0:
			a.Margin[i] = 1 // exact zero-distance tie
		}
		a.Secondary[i] = int16(cands[second].Site)
	} else if owner.FlapWeight > 0 && t.AltSite[b.ASIdx] >= 0 {
		// Flap-prone AS with a single best site: its unstable
		// links divert traffic onto the next-best RIB entry.
		a.Secondary[i] = t.AltSite[b.ASIdx]
	} else {
		a.Secondary[i] = -1
		return dist
	}

	switch {
	case owner.FlapWeight > 0:
		p := owner.FlapWeight * flapProbPerWeight
		if p > flapProbCap {
			p = flapProbCap
		}
		a.FlipProb[i] = float32(p)
	case bestD == 0 || secondD <= bestD*nearTieRatio:
		// Equal-cost multipath territory even for stable ASes.
		a.FlipProb[i] = baselineFlipProb
	}
	return dist
}

// AssignDelta computes t's assignment by reusing a predecessor
// assignment: the three columns are copied wholesale and only the
// blocks owned by ASes in t.Changed — the set ComputeDelta reports —
// are recomputed, through the same assignBlock as the full sweep.
// Falls back to a full AssignWorkers when the predecessor doesn't
// match (different topology or generation) or when t has no change
// list (cold-computed tables treat every AS as potentially changed).
func (t *Table) AssignDelta(prev *Assignment) *Assignment {
	blocks := t.Top.Blocks
	if prev == nil || t.Changed == nil || prev.Table == nil ||
		prev.Table.Top != t.Top || prev.Table.gen != t.gen ||
		len(prev.Primary) != len(blocks) {
		return t.AssignWorkers(0)
	}
	defer obsTimed("assign")()
	// append-style clones: growslice copies into fresh memory without the
	// make+copy pattern's extra zeroing pass — at internet scale these
	// columns are ~10 MB, and the clone is most of AssignDelta's cost.
	a := &Assignment{
		Table:     t,
		Primary:   append([]int16(nil), prev.Primary...),
		Secondary: append([]int16(nil), prev.Secondary...),
		FlipProb:  append([]float32(nil), prev.FlipProb...),
		Margin:    append([]float32(nil), prev.Margin...),
	}

	off, ids := geometryFor(t.Top).blocksByAS(t.Top)
	total := 0
	for _, as := range t.Changed {
		total += int(off[as+1] - off[as])
	}
	work := make([]int32, 0, total)
	for _, as := range t.Changed {
		work = append(work, ids[off[as]:off[as+1]]...)
	}
	dist := workerDist(0, t.NSite)
	parallel.ChunkedWorker(0, len(work), func(w, lo, hi int) {
		d := dist[w]
		for _, bi := range work[lo:hi] {
			d = t.assignBlock(a, int(bi), d)
		}
		dist[w] = d
	})
	if o := obsHooks.Load(); o != nil {
		o.assignBlocksReused.AddInt(len(blocks) - len(work))
	}
	return a
}

// AssignFlat is the hot-potato ablation: every block inherits its AS's
// single deterministic best site, with no per-PoP egress diversity and
// no flip instability. Comparing against Assign shows how much of the
// paper's §6.2 AS-division phenomenon hot-potato routing produces.
func (t *Table) AssignFlat() *Assignment {
	blocks := t.Top.Blocks
	a := &Assignment{
		Table:     t,
		Primary:   make([]int16, len(blocks)),
		Secondary: make([]int16, len(blocks)),
		FlipProb:  make([]float32, len(blocks)),
		Margin:    make([]float32, len(blocks)),
	}
	for i := range a.Margin {
		a.Margin[i] = marginClear
	}
	perAS := make(map[int32]int16)
	for i := range blocks {
		asIdx := blocks[i].ASIdx
		site, ok := perAS[asIdx]
		if !ok {
			site = int16(t.SiteOfAS(int(asIdx)))
			perAS[asIdx] = site
		}
		a.Primary[i] = site
		a.Secondary[i] = -1
	}
	return a
}

// SiteAt returns the site serving block index i during the given round.
// Rounds are the paper's repeated measurements (96 over 24 hours); the
// flip decision is a deterministic hash so identical runs reproduce.
func (a *Assignment) SiteAt(i int, round uint32, seed uint64) int {
	p := a.Primary[i]
	if p < 0 {
		return -1
	}
	fp := a.FlipProb[i]
	if fp == 0 || a.Secondary[i] < 0 {
		return int(p)
	}
	h := seed ^ uint64(a.Table.Top.Blocks[i].Block)<<20 ^ uint64(round)
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	if float32(h&0xffffff)/float32(1<<24) < fp {
		return int(a.Secondary[i])
	}
	return int(p)
}

// SiteOfAS returns the deterministic single best site for an AS (the
// lowest-numbered site among its retained candidates), or -1 if the AS
// has no route. Per-block assignment can differ inside multi-PoP ASes.
func (t *Table) SiteOfAS(asIdx int) int {
	cands := t.Cands[asIdx]
	if len(cands) == 0 {
		return -1
	}
	best := cands[0].Site
	for _, c := range cands[1:] {
		if c.Site < best {
			best = c.Site
		}
	}
	return best
}

// SplitASCount returns how many ASes retain routes to more than one
// distinct site — an upper bound on §6.2's divided-AS phenomenon before
// per-block assignment.
func (t *Table) SplitASCount() int {
	n := 0
	for _, cands := range t.Cands {
		sites := map[int]bool{}
		for _, c := range cands {
			sites[c.Site] = true
		}
		if len(sites) > 1 {
			n++
		}
	}
	return n
}
