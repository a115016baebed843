package placement

// minimal.go is the minimal-move policy: rendezvous (highest-random-weight)
// hashing layered over the replicated allocation table. The table itself is
// the memory that makes minimality possible — every member of the view
// holds the identical table after GATHER (Lemma 1), so "keep what you have,
// move only what you must" is a deterministic rule all members can apply
// independently, and the HRW affinity decides *which* groups are the ones
// that must move, giving departed-and-returned servers their old groups
// back with high probability.
//
// Invariants (proved by the property tests across seeds):
//
//   - Balance emits every member a load within [⌊V/K⌋, ⌈V/K⌉].
//   - From a balanced table, a single join moves at most ⌈V/(N+1)⌉ groups
//     and every move lands on the joiner; a single leave moves exactly the
//     leaver's groups, at most ⌈V/N⌉.
//   - Same inputs ⇒ same plan, on any node, with or without reused
//     scratch.

// minimal is the minimal-move policy. The zero value is ready to use; the
// struct only carries reusable scratch, so instances are single-goroutine.
type minimal struct {
	ownerIdx []int // per group: index into Input.Members, -1 hole, -2 kept ineligible owner
	load     []int // per member: groups currently assigned
}

// newMinimal returns a minimal-move policy instance.
func newMinimal() *minimal { return &minimal{} }

// Name implements Policy.
func (*minimal) Name() string { return NameMinimal }

// MoveBound implements Policy: a single membership change relocates at
// most ⌈vips/members⌉ groups, members being the smaller of the before and
// after eligible counts.
func (*minimal) MoveBound(vips, members int) int {
	if members <= 0 {
		return vips
	}
	return (vips + members - 1) / members
}

// affinity is the rendezvous weight of placing group g on member m:
// FNV-1a over the group name, a separator, and the member name. Pure
// byte-at-a-time hashing — no concatenation, no allocation.
func affinity(g, m string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(g); i++ {
		h ^= uint64(g[i])
		h *= prime64
	}
	h ^= 0xff
	h *= prime64
	for i := 0; i < len(m); i++ {
		h ^= uint64(m[i])
		h *= prime64
	}
	return h
}

// reset sizes the scratch for v groups over k members.
func (p *minimal) reset(v, k int) {
	if cap(p.ownerIdx) < v {
		p.ownerIdx = make([]int, v)
	}
	p.ownerIdx = p.ownerIdx[:v]
	if cap(p.load) < k {
		p.load = make([]int, k)
	}
	p.load = p.load[:k]
	for i := range p.load {
		p.load[i] = 0
	}
}

// Balance implements Policy.
//
// Keep every eligible owner; displace ineligible ones. Members above the
// capacity ⌈V/K⌉ shed their lowest-affinity groups into a pool; the pool
// plus the holes go to the highest-affinity member with room, preferring
// members still below the floor ⌊V/K⌋; finally, members left below the
// floor pull their highest-affinity groups from the most loaded donors.
// Preferences are not consulted — stickiness comes from the table and the
// hash (`prefer` is documented as a least-loaded feature).
func (p *minimal) Balance(in Input, dst []Decision) []Decision {
	dst = dst[:0]
	if len(in.Members) == 0 {
		return dst
	}
	v, k := len(in.Groups), len(in.Members)
	p.reset(v, k)
	capacity := (v + k - 1) / k
	floor := v / k

	for gi, g := range in.Groups {
		owner := memberIndex(in.Members, in.Owner(g))
		p.ownerIdx[gi] = owner
		if owner >= 0 {
			p.load[owner]++
		}
	}

	// Shed: members over capacity give up their lowest-affinity groups.
	for j := 0; j < k; j++ {
		for p.load[j] > capacity {
			shed, best := -1, uint64(0)
			for gi := range p.ownerIdx {
				if p.ownerIdx[gi] != j {
					continue
				}
				if a := affinity(in.Groups[gi], in.Members[j]); shed < 0 || a < best {
					shed, best = gi, a
				}
			}
			p.ownerIdx[shed] = -1
			p.load[j]--
		}
	}

	// Assign holes (uncovered groups plus everything shed) to the
	// highest-affinity member with room, under-floor members first.
	for gi := range p.ownerIdx {
		if p.ownerIdx[gi] >= 0 {
			continue
		}
		to := p.pickHome(in, gi, floor, capacity)
		p.ownerIdx[gi] = to
		p.load[to]++
	}

	// Floor pass: anybody still below the floor pulls its highest-affinity
	// group from the most loaded donor. Terminates because the total load
	// is V ≥ K·⌊V/K⌋: while someone is below the floor, someone else is
	// above it.
	for {
		recv := -1
		for j := 0; j < k; j++ {
			if p.load[j] < floor {
				recv = j
				break
			}
		}
		if recv < 0 {
			break
		}
		donor := -1
		for j := 0; j < k; j++ {
			if p.load[j] > floor && (donor < 0 || p.load[j] > p.load[donor]) {
				donor = j
			}
		}
		pull, best := -1, uint64(0)
		for gi := range p.ownerIdx {
			if p.ownerIdx[gi] != donor {
				continue
			}
			if a := affinity(in.Groups[gi], in.Members[recv]); pull < 0 || a > best {
				pull, best = gi, a
			}
		}
		p.ownerIdx[pull] = recv
		p.load[donor]--
		p.load[recv]++
	}

	for gi, g := range in.Groups {
		dst = append(dst, Decision{Group: g, Owner: in.Members[p.ownerIdx[gi]]})
	}
	return dst
}

// Fill implements Policy: owners keep their groups verbatim (including
// owners absent from the eligible list, matching the engine's post-gather
// rule), and only holes are assigned — by affinity, under-floor members
// first, so the subsequent balance has nothing left to fix after a clean
// departure.
func (p *minimal) Fill(in Input, dst []Decision) []Decision {
	dst = dst[:0]
	v, k := len(in.Groups), len(in.Members)
	p.reset(v, k)
	capacity, floor := 0, 0
	if k > 0 {
		capacity = (v + k - 1) / k
		floor = v / k
	}

	for gi, g := range in.Groups {
		owner := in.Owner(g)
		switch idx := memberIndex(in.Members, owner); {
		case owner == "":
			p.ownerIdx[gi] = -1
		case idx < 0:
			p.ownerIdx[gi] = -2 // ineligible owner keeps the group
		default:
			p.ownerIdx[gi] = idx
			p.load[idx]++
		}
	}
	if k > 0 {
		for gi := range p.ownerIdx {
			if p.ownerIdx[gi] != -1 {
				continue
			}
			to := p.pickHome(in, gi, floor, capacity)
			p.ownerIdx[gi] = to
			p.load[to]++
		}
	}

	for gi, g := range in.Groups {
		owner := ""
		if idx := p.ownerIdx[gi]; idx >= 0 {
			owner = in.Members[idx]
		} else if idx == -2 {
			owner = in.Owner(g)
		}
		dst = append(dst, Decision{Group: g, Owner: owner})
	}
	return dst
}

// pickHome chooses the member that takes group gi: the highest-affinity
// member still below the floor, else the highest-affinity member below
// capacity, else (unreachable when K·⌈V/K⌉ ≥ V, kept for robustness) the
// least loaded.
func (p *minimal) pickHome(in Input, gi, floor, capacity int) int {
	g := in.Groups[gi]
	pick, best := -1, uint64(0)
	for j, m := range in.Members {
		if p.load[j] >= floor {
			continue
		}
		if a := affinity(g, m); pick < 0 || a > best {
			pick, best = j, a
		}
	}
	if pick >= 0 {
		return pick
	}
	for j, m := range in.Members {
		if p.load[j] >= capacity {
			continue
		}
		if a := affinity(g, m); pick < 0 || a > best {
			pick, best = j, a
		}
	}
	if pick >= 0 {
		return pick
	}
	for j := range in.Members {
		if pick < 0 || p.load[j] < p.load[pick] {
			pick = j
		}
	}
	return pick
}
