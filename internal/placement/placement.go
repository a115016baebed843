// Package placement computes the VIP-group → member assignment consumed by
// the core engine's balance and post-gather reallocation paths. It exists
// so the assignment *policy* can vary without touching the replicated state
// machine: every policy is a deterministic pure function of the replicated
// inputs (the canonical group list, the eligible member list in view order,
// and the current allocation table), so by Lemma 1 of the paper all members
// of a view compute the identical plan independently.
//
// Two policies ship:
//
//   - least-loaded: the paper's §3.4 balance rule, byte-for-byte the
//     behaviour the engine had before this package existed (preference
//     grants, capacity shedding, least-loaded hole filling). Every
//     membership change may reshuffle the whole table.
//   - minimal: a rendezvous-hashing (HRW) minimal-repair policy. Owners
//     keep their groups; only over-capacity surplus and uncovered groups
//     move, steered by each group's highest-random-weight affinity. A
//     single join or leave from a balanced state relocates at most
//     ⌈V/N⌉ groups (see MoveBound), making planned churn — scale-out,
//     drain, rolling restart — cheap instead of crash-equivalent.
//
// Policies carry reusable scratch space and are therefore NOT safe for
// concurrent use; the engine calls them from its single callback loop.
package placement

import "fmt"

// Policy names accepted by New and the `placement` config directive.
const (
	NameLeastLoaded = "least-loaded"
	NameMinimal     = "minimal"
)

// Decision assigns one group to one owner. An empty Owner leaves the group
// uncovered (only possible when no member is eligible).
type Decision struct {
	Group string
	Owner string
}

// Input is the replicated state a policy plans over. All fields reflect
// information every member of the view holds identically once GATHER
// completes, which is what makes independent planning safe.
type Input struct {
	// Groups is the configured group universe in canonical (sorted) order.
	Groups []string
	// Members are the members eligible to own addresses (those whose
	// STATE_MSG declared maturity), in view order. New joiners inside the
	// paper's maturity window are absent from this list, so no policy can
	// hand load to a server that is not ready for it.
	Members []string
	// Owner returns the current table owner of a group ("" when
	// uncovered). The returned member need not be eligible — policies
	// decide per mode whether such owners are displaced.
	Owner func(group string) string
	// Prefers reports whether member asked to own group (§3.4 startup
	// preferences). Only the least-loaded policy consults it.
	Prefers func(member, group string) bool
}

// Policy plans VIP-group assignments. Implementations are deterministic in
// their Input and keep internal scratch, so a Policy instance must only be
// used from one goroutine.
type Policy interface {
	// Name returns the config-directive name of the policy.
	Name() string
	// Balance computes the full target allocation for the re-balancing
	// procedure (§3.4): owners that are no longer eligible are displaced
	// and load is evened out policy-fashion. The plan is appended to
	// dst[:0] and covers every group in in.Groups, in order.
	Balance(in Input, dst []Decision) []Decision
	// Fill completes the table after GATHER (Reallocate_IPs): every
	// current owner keeps its groups verbatim — even an owner absent from
	// in.Members, matching the engine's historical hole-filling — and only
	// uncovered groups are assigned. The plan is appended to dst[:0].
	Fill(in Input, dst []Decision) []Decision
	// MoveBound is the worst-case number of groups a single membership
	// change (one join or one leave) relocates, starting from a balanced
	// allocation of vips groups where members is the smaller of the
	// before/after eligible-member counts. The churn oracle arms itself
	// with this bound.
	MoveBound(vips, members int) int
}

// Names lists the accepted policy names.
func Names() []string { return []string{NameLeastLoaded, NameMinimal} }

// New returns the named policy, defaulting to least-loaded for "".
func New(name string) (Policy, error) {
	switch name {
	case "", NameLeastLoaded:
		return NewLeastLoaded(), nil
	case NameMinimal:
		return newMinimal(), nil
	default:
		return nil, fmt.Errorf("placement: unknown policy %q (want %s or %s)",
			name, NameLeastLoaded, NameMinimal)
	}
}

// memberIndex returns m's position in members, or -1. Linear scan: member
// lists are small (a cluster is a handful of servers) and this keeps
// planning allocation-free.
func memberIndex(members []string, m string) int {
	for i, x := range members {
		if x == m {
			return i
		}
	}
	return -1
}
