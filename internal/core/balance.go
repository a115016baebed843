package core

// balance.go adapts the engine to the placement plane. The re-balancing
// decision (§3.4) and the post-gather hole filling both delegate to the
// configured placement.Policy; the engine's job is reduced to assembling
// the replicated inputs (canonical group list, eligible members in view
// order, the current table) and applying the returned plan. The default
// policy reproduces the historical least-loaded rule byte for byte.

import (
	"slices"

	"wackamole/internal/placement"
)

// placementInput assembles the policy's view of the replicated state. The
// member scratch slice and the owner/prefers closures are reused across
// calls, so planning itself stays allocation-free.
func (e *Engine) placementInput(eligible []MemberID) placement.Input {
	e.memberScratch = e.memberScratch[:0]
	for _, m := range eligible {
		e.memberScratch = append(e.memberScratch, string(m))
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
	eligible := e.eligibleMembers()
	if len(eligible) == 0 {
		return nil, false
	}
	e.planScratch = e.placer.Balance(e.placementInput(eligible), e.planScratch[:0])
	pairs := make([]allocPair, 0, len(e.planScratch))
	changed := false
	for _, d := range e.planScratch {
		owner := MemberID(d.Owner)
		pairs = append(pairs, allocPair{Group: d.Group, Owner: owner})
		if owner != e.table[d.Group] {
			changed = true
		}
	}
	return pairs, changed
}

// computeReallocation returns the full post-gather allocation: current
// owners keep their groups, holes are filled by the placement policy among
// the eligible members.
func (e *Engine) computeReallocation() []allocPair {
	e.planScratch = e.placer.Fill(e.placementInput(e.eligibleMembers()), e.planScratch[:0])
	alloc := make([]allocPair, 0, len(e.planScratch))
	for _, d := range e.planScratch {
		alloc = append(alloc, allocPair{Group: d.Group, Owner: MemberID(d.Owner)})
	}
	return alloc
}

// AllocationCounts summarizes how many groups each member of the current
// view owns according to the table; experiments use it to quantify skew.
func (e *Engine) AllocationCounts() map[MemberID]int {
	out := map[MemberID]int{}
	for _, owner := range e.table {
		if owner != "" {
			out[owner]++
		}
	}
	return out
}

// noteOwner records that the replicated table now assigns g to owner and
// counts a placement move when that differs from the last recorded owner.
// Every member observes the same table transitions (the inputs are
// replicated), so the per-node placement_moves_total counters agree.
func (e *Engine) noteOwner(g string, owner MemberID) {
	if owner == "" {
		return
	}
	prev, seen := e.lastOwner[g]
	if seen && prev != owner {
		e.stats.moves.Add(1)
		e.mMoves.Inc()
	}
	e.lastOwner[g] = owner
}

// updateSkew refreshes the placement_skew gauge: the spread between the
// most and least loaded eligible members under the current table.
func (e *Engine) updateSkew() {
	// One pass over the table, counting into a slot per eligible member. The
	// arrays keep the slices of any cluster the paper considers on the stack.
	var idBuf [16]MemberID
	var countBuf [16]int
	ids, counts := idBuf[:0], countBuf[:0]
	for _, m := range e.view.Members {
		if e.matureOf[m] {
			ids, counts = append(ids, m), append(counts, 0)
		}
	}
	for _, owner := range e.table {
		if i := slices.Index(ids, owner); i >= 0 {
			counts[i]++
		}
	}
	skew := 0
	if len(counts) > 1 {
		skew = slices.Max(counts) - slices.Min(counts)
	}
	e.stats.skew.Store(int64(skew))
	e.mSkew.Set(int64(skew))
}
