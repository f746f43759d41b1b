package monitor

import (
	"math"

	"verfploeter/internal/colstore"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// strata partitions the topology's blocks into hash-strata of whole
// ASes. Routing drift here is session-grained — a prepend, withdrawal,
// or tie-break epoch moves entire AS sessions — so keeping each AS
// within one stratum means a drifted AS's sampled block escalates
// exactly the stratum holding the rest of that AS.
//
// Everything is keyed by topology block index i (the block's position
// in Top.Blocks, ascending block order), so an epoch's sample, probe and
// escalation sets are colstore.Bitsets over [0, len(Top.Blocks)) and no
// step hashes or searches a block. The member lists are CSR: AS a owns
// asIdx[asOff[a]:asOff[a+1]], stratum s owns stIdx[stOff[s]:stOff[s+1]],
// both ascending. Block i's topology predecessor — the only block whose
// probe can alias a reply into it (the dataplane's cross-alias rule) —
// is i-1.
type strata struct {
	n   int
	top *topology.Topology
	gen uint64 // top's generation the lists were built at
	// ix is the hitlist index hl maps into; hl[i] is block i's hitlist
	// id, -1 when the hitlist does not cover it.
	ix *colstore.Index
	hl []int32
	// byAS[a] is AS a's stratum, of[i] block i's.
	byAS []int32
	of   []int32

	asOff, asIdx []int32
	stOff, stIdx []int32

	// scratch is sampleSet's reusable ranking buffer.
	scratch []ranked
}

func buildStrata(s *scenario.Scenario, n int) *strata {
	blocks := s.Top.Blocks
	nb, nAS := len(blocks), len(s.Top.ASes)
	st := &strata{
		n: n, top: s.Top, gen: s.Top.Generation(), ix: s.Hitlist.Index(),
		hl:    make([]int32, nb),
		byAS:  make([]int32, nAS),
		of:    make([]int32, nb),
		asOff: make([]int32, nAS+1),
		asIdx: make([]int32, nb),
		stOff: make([]int32, n+1),
		stIdx: make([]int32, nb),
	}
	for a := range st.byAS {
		st.byAS[a] = int32(mix64(s.Seed^0x5742a7a7, uint64(a)) % uint64(n))
	}
	for i := range blocks {
		a := blocks[i].ASIdx
		st.of[i] = st.byAS[a]
		st.asOff[a+1]++
		st.stOff[st.of[i]+1]++
	}
	for a := 0; a < nAS; a++ {
		st.asOff[a+1] += st.asOff[a]
	}
	for k := 0; k < n; k++ {
		st.stOff[k+1] += st.stOff[k]
	}
	asNext := append([]int32(nil), st.asOff[:nAS]...)
	stNext := append([]int32(nil), st.stOff[:n]...)
	// Topology blocks and hitlist blocks both ascend, so one merge walk
	// finds every block's hitlist id.
	hb := st.ix.Blocks()
	j := 0
	for i := range blocks {
		a, k := blocks[i].ASIdx, st.of[i]
		st.asIdx[asNext[a]] = int32(i)
		asNext[a]++
		st.stIdx[stNext[k]] = int32(i)
		stNext[k]++
		b := blocks[i].Block
		for j < len(hb) && hb[j] < b {
			j++
		}
		st.hl[i] = -1
		if j < len(hb) && hb[j] == b {
			st.hl[i] = int32(j)
		}
	}
	return st
}

// current reports whether the strata still describe the scenario: same
// topology generation and same hitlist index.
func (st *strata) current(s *scenario.Scenario) bool {
	return st.top == s.Top && st.gen == s.Top.Generation() && st.ix == s.Hitlist.Index()
}

// ofAS returns AS a's block indices.
func (st *strata) ofAS(a int) []int32 { return st.asIdx[st.asOff[a]:st.asOff[a+1]] }

// ranked is one block's sample rank: the per-epoch hash, ties broken by
// index (equivalently by block, since indices ascend with blocks).
type ranked struct {
	h uint64
	i int32
}

func (r ranked) less(o ranked) bool { return r.h < o.h || (r.h == o.h && r.i < o.i) }

// sampleSet picks each AS's deterministic sample for the epoch:
// max(1, ceil(rate·|blocks|)) blocks, the ones with the smallest
// per-epoch hash, so the sample rotates across epochs — a flip missed
// this epoch (because a multi-PoP AS drifted only partially) meets a
// different sample next epoch. The sample is a set, so each AS's k
// smallest are selected, not sorted. ASes for which want returns false
// are left out; a nil want keeps every AS. The result is a bitset over
// topology block indices.
func (st *strata) sampleSet(epoch int, rate float64, seed uint64, want func(a int) bool) *colstore.Bitset {
	out := colstore.NewBitset(len(st.of))
	h0 := seed ^ uint64(epoch)*0x9e3779b97f4a7c15
	blocks := st.top.Blocks
	for a := 0; a+1 < len(st.asOff); a++ {
		idx := st.ofAS(a)
		if len(idx) == 0 || (want != nil && !want(a)) {
			continue
		}
		k := int(math.Ceil(rate * float64(len(idx))))
		if k < 1 {
			k = 1
		}
		if k >= len(idx) {
			for _, i := range idx {
				out.Add(int(i))
			}
			continue
		}
		sc := st.scratch[:0]
		for _, i := range idx {
			sc = append(sc, ranked{mix64(h0, uint64(blocks[i].Block)), i})
		}
		selectSmallest(sc, k)
		for _, r := range sc[:k] {
			out.Add(int(r.i))
		}
		st.scratch = sc
	}
	return out
}

// selectSmallest reorders a so that a[:k] holds its k smallest elements
// (in no particular order): quickselect on distinct keys, middle pivot.
func selectSmallest(a []ranked, k int) {
	lo, hi, t := 0, len(a)-1, k-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		a[mid], a[hi] = a[hi], a[mid]
		piv, p := a[hi], lo
		for j := lo; j < hi; j++ {
			if a[j].less(piv) {
				a[p], a[j] = a[j], a[p]
				p++
			}
		}
		a[p], a[hi] = a[hi], a[p]
		switch {
		case p == t:
			return
		case p < t:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// blocksOf returns every block index of the given strata.
func (st *strata) blocksOf(which *colstore.Bitset) *colstore.Bitset {
	out := colstore.NewBitset(len(st.of))
	which.Range(func(k int) bool {
		for _, i := range st.stIdx[st.stOff[k]:st.stOff[k+1]] {
			out.Add(int(i))
		}
		return true
	})
	return out
}

// hitlistIDs converts a set of block indices into the hitlist-id subset
// a sweep takes, adding each member's topology predecessor when
// withPred is set. Blocks the hitlist does not cover are dropped.
func (st *strata) hitlistIDs(set *colstore.Bitset, withPred bool) *colstore.Bitset {
	out := colstore.NewBitset(st.ix.Len())
	set.Range(func(i int) bool {
		if h := st.hl[i]; h >= 0 {
			out.Add(int(h))
		}
		if withPred && i > 0 {
			if h := st.hl[i-1]; h >= 0 {
				out.Add(int(h))
			}
		}
		return true
	})
	return out
}

// allStrata marks every stratum for escalation.
func (st *strata) allStrata() *colstore.Bitset {
	out := colstore.NewBitset(st.n)
	for k := 0; k < st.n; k++ {
		out.Add(k)
	}
	return out
}

// changedAt reports whether hitlist id's entry differs between two
// catchments over the same index: presence, site, or RTT.
func changedAt(a, b *verfploeter.Catchment, id int) bool {
	as, aok := a.SiteAt(id)
	bs, bok := b.SiteAt(id)
	if aok != bok || as != bs {
		return true
	}
	return aok && a.RTTAt(id) != b.RTTAt(id)
}

// driftedStrata compares the sampled observation against the carried
// map: any divergence — presence, site, or RTT — marks the block's
// stratum for escalation. RTT participates because a withdrawn origin
// leg changes every RTT without flipping sites; byte-identity to full
// mode requires catching that too. The second return value counts the
// drifted sampled blocks, for the global-drift trigger. Blocks outside
// the hitlist are never observed, so they never drift.
func (st *strata) driftedStrata(prev, obs *verfploeter.Catchment, sample *colstore.Bitset) (*colstore.Bitset, int) {
	esc := colstore.NewBitset(st.n)
	n := 0
	sample.Range(func(i int) bool {
		if h := st.hl[i]; h >= 0 && changedAt(prev, obs, int(h)) {
			n++
			esc.Add(int(st.of[i]))
		}
		return true
	})
	return esc, n
}

// siteAnomaly reports whether the set of sites seen among the sampled
// observations differs from the set among the same blocks' carried
// entries — the signature of a site going dark or coming back.
func (st *strata) siteAnomaly(prev, obs *verfploeter.Catchment, sample *colstore.Bitset) bool {
	prevSites := make([]bool, prev.NSite)
	obsSites := make([]bool, obs.NSite)
	sample.Range(func(i int) bool {
		h := int(st.hl[i])
		if h < 0 {
			return true
		}
		if s, ok := prev.SiteAt(h); ok {
			prevSites[s] = true
		}
		if s, ok := obs.SiteAt(h); ok {
			obsSites[s] = true
		}
		return true
	})
	return !equalBools(prevSites, obsSites)
}
