package invariant

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/core"
)

// ClusterView is the read-only slice of a cluster the settled-state checks
// need: reachability partition, per-server service/interface state and the
// VIP-group naming scheme. It is a bundle of closures rather than an
// interface so harnesses (the simulated cluster, future sharded layouts)
// can expose it without a dependency on this package's consumers;
// wackamole.(*Cluster).InvariantView builds one.
type ClusterView struct {
	// Servers and VIPs size the cluster.
	Servers int
	VIPs    int
	// Components partitions the reachable servers; singleton components for
	// isolated servers, ordered by first-seen server index.
	Components func() [][]int
	// InService reports whether server i's node is connected to its daemon
	// and serving.
	InService func(i int) bool
	// Reachable reports whether server i's host is up and attached.
	Reachable func(i int) bool
	// HasVIP reports whether server i's interface currently answers for
	// virtual address j.
	HasVIP func(i, j int) bool
	// VIPAddr is virtual address j as an IP (for messages).
	VIPAddr func(j int) netip.Addr
	// GroupName is the VIP group name allocated to address j.
	GroupName func(j int) string
	// Status is server i's engine status snapshot.
	Status func(i int) core.Status
}

// settledProblem demands the settled-state properties of a quiescent
// cluster: Property 1 (exactly-once coverage per component), Property 2
// (one view, one table per component) and interface/engine agreement —
// the paper's correctness claims at rest, complementing the online oracles
// that watch the event streams. It returns the violated oracle name and a
// description, or ("", "") when the cluster is clean. Callers own the
// retry policy: a transient failure is legitimate while a balance is
// mid-flight, so the checker re-runs the probe once after an extra second
// before declaring a violation.
func settledProblem(cv ClusterView) (oracle, detail string) {
	for _, comp := range cv.Components() {
		var serving []int
		for _, i := range comp {
			if cv.InService(i) {
				serving = append(serving, i)
			}
		}
		if len(serving) == 0 {
			// A component with no in-service node must hold nothing: its
			// engines released (or never had) every address.
			for _, i := range comp {
				for j := 0; j < cv.VIPs; j++ {
					if cv.HasVIP(i, j) {
						return oracleForeignClaim, fmt.Sprintf(
							"server %d holds %v although no node in component %v is in service",
							i, cv.VIPAddr(j), comp)
					}
				}
			}
			continue
		}

		// Property 2: every in-service member of the component has settled
		// on the same view and the same allocation table.
		ref := cv.Status(serving[0])
		if ref.State != core.StateRun {
			return OracleConvergence, fmt.Sprintf(
				"server %d still in state %v after the settle bound (component %v)",
				serving[0], ref.State, comp)
		}
		for _, i := range serving[1:] {
			st := cv.Status(i)
			if st.State != core.StateRun {
				return OracleConvergence, fmt.Sprintf(
					"server %d still in state %v after the settle bound (component %v)",
					i, st.State, comp)
			}
			if st.ViewID != ref.ViewID {
				return OracleConvergence, fmt.Sprintf(
					"servers %d and %d settled on different views %q and %q in component %v",
					serving[0], i, ref.ViewID, st.ViewID, comp)
			}
			if !tablesEqual(ref.Table, st.Table) {
				return OracleConvergence, fmt.Sprintf(
					"servers %d and %d settled on different tables in view %q: %v vs %v",
					serving[0], i, ref.ViewID, ref.Table, st.Table)
			}
		}

		// Property 1: exactly one holder per virtual address within the
		// component — counting every reachable interface, in service or
		// not, because a stale interface answering ARP is a real conflict.
		for j := 0; j < cv.VIPs; j++ {
			var holders []int
			for _, i := range comp {
				if cv.HasVIP(i, j) {
					holders = append(holders, i)
				}
			}
			if len(holders) != 1 {
				return oracleExactlyOnce, fmt.Sprintf(
					"%v has %d holders %v in component %v (want exactly one)",
					cv.VIPAddr(j), len(holders), holders, comp)
			}
		}
	}

	// Oracle (e), settled half: every reachable interface holds exactly the
	// addresses its engine believes it owns.
	for i := 0; i < cv.Servers; i++ {
		if !cv.Reachable(i) {
			continue
		}
		owned := map[string]bool{}
		for _, g := range cv.Status(i).Owned {
			owned[g] = true
		}
		for j := 0; j < cv.VIPs; j++ {
			has := cv.HasVIP(i, j)
			wants := owned[cv.GroupName(j)]
			if has != wants {
				return oracleForeignClaim, fmt.Sprintf(
					"server %d interface and engine disagree on %v: interface=%v engine=%v",
					i, cv.VIPAddr(j), has, wants)
			}
		}
	}
	return "", ""
}

// CheckSettled runs settledProblem with the standard one-retry policy: a
// transient failure is tolerated once (an in-flight balance legitimately
// moves an address between two interfaces in a sub-millisecond window),
// with runFor advancing the cluster the extra second between probes;
// persistent failures are recorded on the monitor.
func (m *Monitor) CheckSettled(cv ClusterView, runFor func(time.Duration)) {
	if m == nil {
		return
	}
	oracle, detail := settledProblem(cv)
	if oracle == "" {
		return
	}
	if runFor != nil {
		runFor(time.Second)
		oracle, detail = settledProblem(cv)
	}
	if oracle != "" {
		m.Fail(oracle, "%s", detail)
	}
}

func tablesEqual(a, b map[string]core.MemberID) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
