package core

// balance.go adapts the engine to the placement plane. The re-balancing
// decision (§3.4) and the post-gather hole filling both delegate to the
// configured placement.Policy; the engine's job is reduced to assembling
// the replicated inputs (canonical group list, eligible members in view
// order, the current table) and applying the returned plan. The default
// policy reproduces the historical least-loaded rule byte for byte.

import "wackamole/internal/placement"

// placementInput assembles the policy's view of the replicated state: the
// members that may own addresses in this view — those whose STATE_MSG
// declared maturity, identical at every member — in view order. The member
// scratch slice and the owner/prefers closures are reused across calls, so
// planning itself stays allocation-free.
func (e *Engine) placementInput() placement.Input {
	e.memberScratch = e.memberScratch[:0]
	for pos, m := range e.view.Members {
		if e.matureOf[pos] {
			e.memberScratch = append(e.memberScratch, string(m))
		}
	}
	return placement.Input{
		Groups:  e.sortedNames,
		Members: e.memberScratch,
		Owner:   e.ownerFn,
		Prefers: e.prefersFn,
	}
}

// balancedAllocation computes the representative's target allocation. It
// reports changed=false when the current table already satisfies it.
func (e *Engine) balancedAllocation() ([]allocPair, bool) {
	in := e.placementInput()
	if len(in.Members) == 0 {
		return nil, false
	}
	e.planScratch = e.placer.Balance(in, e.planScratch[:0])
	changed := false
	for _, d := range e.planScratch {
		if d.Owner != e.ownerFn(d.Group) {
			changed = true
		}
	}
	return planPairs(e.planScratch), changed
}

// computeReallocation returns the full post-gather allocation for the
// representative's ALLOC message: current owners keep their groups, holes are
// filled by the placement policy among the eligible members.
func (e *Engine) computeReallocation() []allocPair {
	e.planScratch = e.placer.Fill(e.placementInput(), e.planScratch[:0])
	return planPairs(e.planScratch)
}

// planPairs copies a plan into the pair list a BALANCE or ALLOC message
// carries.
func planPairs(plan []placement.Decision) []allocPair {
	pairs := make([]allocPair, 0, len(plan))
	for _, d := range plan {
		pairs = append(pairs, allocPair{Group: d.Group, Owner: MemberID(d.Owner)})
	}
	return pairs
}

// setOwner records that the replicated table now assigns group gi to the
// member at view position pos (-1: nobody) and counts a placement move when
// that member differs from the last recorded owner. Every member observes the
// same table transitions (the inputs are replicated), so the per-node
// placement_moves_total counters agree.
func (e *Engine) setOwner(gi, pos int) {
	e.table[gi] = pos
	if pos < 0 {
		return
	}
	owner := e.view.Members[pos]
	if prev := e.lastOwner[gi]; prev != "" && prev != owner {
		e.stats.moves.Add(1)
		e.mMoves.Inc()
	}
	e.lastOwner[gi] = owner
}

// updateSkew refreshes the placement_skew gauge: the spread between the
// most and least loaded eligible members under the current table.
func (e *Engine) updateSkew() {
	e.loads = sized(e.loads, len(e.view.Members))
	for _, pos := range e.table {
		if pos >= 0 {
			e.loads[pos]++
		}
	}
	lo, hi, eligible := 0, 0, 0
	for pos, n := range e.loads {
		if !e.matureOf[pos] {
			continue
		}
		if eligible == 0 || n < lo {
			lo = n
		}
		if eligible == 0 || n > hi {
			hi = n
		}
		eligible++
	}
	// With fewer than two eligible members there is no spread: hi == lo.
	e.stats.skew.Store(int64(hi - lo))
	e.mSkew.Set(int64(hi - lo))
}
