// Package core implements the Wackamole state-synchronization algorithm —
// the primary contribution of the paper (§3): a RUN/GATHER state machine
// over a view-synchronous group that keeps every virtual IP address covered
// exactly once per connected component, plus the practical refinements of
// §3.4 (eager conflict resolution, representative-driven load balancing with
// startup preferences, and the maturity bootstrap) and the indivisible
// virtual-address groups required by the router application (§5.2).
//
// The engine is transport-agnostic: it consumes view changes and totally
// ordered messages (from the gcs group layer, or from a scripted fake in
// tests) and drives an address owner and an ARP notifier. All methods must
// be called from a single callback loop.
package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"wackamole/internal/placement"
)

// MemberID identifies one Wackamole instance within the group. Members are
// compared and ordered lexicographically; the group layer guarantees every
// member sees the identical ordered list.
type MemberID string

// State is the engine's algorithm state (Figure 2 of the paper). BALANCE is
// executed atomically inside a single callback, so it never appears as a
// resting state.
type State uint8

// Engine states.
const (
	// StateDetached: not connected to a group-communication daemon; holds
	// no addresses (§4.2 behaviour after losing the daemon connection).
	StateDetached State = iota + 1
	// stateGather: collecting STATE_MSGs for the current view.
	stateGather
	// StateRun: operational; current_table is conflict-free and complete.
	StateRun
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateDetached:
		return "detached"
	case stateGather:
		return "gather"
	case StateRun:
		return "run"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// VIPGroup is the unit of allocation: an indivisible set of virtual
// addresses that always moves between servers as one entity. Web clusters
// use one address per group; the virtual-router application (§5.2) groups
// the router's addresses on all of its networks.
type VIPGroup struct {
	// Name identifies the group; unique within a configuration.
	Name string
	// Addrs are the virtual addresses in the group.
	Addrs []netip.Addr
}

// View is a group membership notification as the engine sees it: an opaque
// identifier (equal at any two members that received the same view) and the
// uniquely ordered member list.
type View struct {
	ID      string
	Members []MemberID
}

// indexOf returns m's position in the view, or -1.
func (v View) indexOf(m MemberID) int {
	for i, x := range v.Members {
		if x == m {
			return i
		}
	}
	return -1
}

// Config holds the engine's static configuration. Every member of a cluster
// must be configured with the same Groups; Prefer and the timeouts may
// differ per server.
type Config struct {
	// Groups is the universe of virtual address groups the cluster covers.
	Groups []VIPGroup
	// Prefer lists group names this server would rather own; the balancer
	// honours preferences when load allows (§3.4).
	Prefer []string
	// BalanceTimeout is how long after entering RUN the representative
	// rebalances the allocation. Zero means 30s.
	BalanceTimeout time.Duration
	// MatureTimeout is how long a freshly started server waits before
	// declaring itself mature when it cannot contact any mature server
	// (§3.4). Zero means 5s.
	MatureTimeout time.Duration
	// StartMature skips the maturity bootstrap: the server manages
	// addresses from its first view.
	StartMature bool
	// DisableBalance turns off the re-balancing procedure; coverage is
	// still complete, only the allocation may grow skewed after repeated
	// faults (used by the ablation experiments).
	DisableBalance bool
	// LazyConflictRelease delays releasing conflicting addresses until the
	// end of GATHER instead of dropping them the moment a conflict is
	// detected. The paper argues for eager release (§3.4); this switch
	// exists for the ablation experiment quantifying that choice.
	LazyConflictRelease bool
	// RepresentativeDecisions enables the §4.2 variant: instead of every
	// daemon running the deterministic reallocation independently, the
	// representative (first member of the ordered list) computes the
	// allocation and imposes it on the others with an ALLOC message. The
	// paper notes this "will enable changing the way virtual address
	// allocation decisions are made without breaking version
	// compatibility". Conflict resolution remains eager and local, since it
	// restores network-level consistency.
	RepresentativeDecisions bool
	// Placer selects the placement policy behind the balance and
	// post-gather reallocation paths. Nil means the paper's least-loaded
	// rule (exactly the historical behaviour); the "minimal" policy
	// bounds relocation on membership changes to ⌈V/N⌉ groups. Every
	// member of a cluster must run the same policy: the engines plan
	// independently and rely on computing identical plans (Lemma 1).
	// The engine takes ownership of the instance — policies carry scratch
	// state and must not be shared between engines.
	Placer placement.Policy
}

const (
	defaultBalanceTimeout = 30 * time.Second
	defaultMatureTimeout  = 5 * time.Second
)

func (c Config) balanceTimeout() time.Duration {
	if c.BalanceTimeout <= 0 {
		return defaultBalanceTimeout
	}
	return c.BalanceTimeout
}

func (c Config) matureTimeout() time.Duration {
	if c.MatureTimeout <= 0 {
		return defaultMatureTimeout
	}
	return c.MatureTimeout
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if len(c.Groups) == 0 {
		return fmt.Errorf("core: no virtual address groups configured")
	}
	names := map[string]bool{}
	addrs := map[netip.Addr]bool{}
	for _, g := range c.Groups {
		if g.Name == "" {
			return fmt.Errorf("core: virtual address group with empty name")
		}
		if names[g.Name] {
			return fmt.Errorf("core: duplicate group name %q", g.Name)
		}
		names[g.Name] = true
		if len(g.Addrs) == 0 {
			return fmt.Errorf("core: group %q has no addresses", g.Name)
		}
		for _, a := range g.Addrs {
			if !a.IsValid() {
				return fmt.Errorf("core: group %q has an invalid address", g.Name)
			}
			if addrs[a] {
				return fmt.Errorf("core: address %v appears in more than one group", a)
			}
			addrs[a] = true
		}
	}
	for _, p := range c.Prefer {
		if !names[p] {
			return fmt.Errorf("core: preference %q names no configured group", p)
		}
	}
	return nil
}

// sortedGroupNames returns the configured group names in canonical order.
func (c Config) sortedGroupNames() []string {
	out := make([]string, len(c.Groups))
	for i, g := range c.Groups {
		out[i] = g.Name
	}
	sort.Strings(out)
	return out
}

// Status is a point-in-time snapshot of the engine, for tooling and tests.
type Status struct {
	State   State
	Mature  bool
	ViewID  string
	Members []MemberID
	// Table maps every configured group to its owner ("" if uncovered, as
	// happens transiently during GATHER or before maturity).
	Table map[string]MemberID
	// Owned lists the groups whose addresses this node has acquired.
	Owned []string
}
