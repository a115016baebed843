package core_test

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/arp"
	"wackamole/internal/core"
	"wackamole/internal/ipmgr"
	"wackamole/internal/obs"
	"wackamole/internal/sim"
)

func TestStateStrings(t *testing.T) {
	for want, s := range map[string]core.State{
		"detached": core.StateDetached, "gather": core.StateGather, "run": core.StateRun,
	} {
		if s.String() != want {
			t.Fatalf("%v.String() = %q", s, s.String())
		}
	}
	if core.State(99).String() == "" {
		t.Fatal("unknown state empty")
	}
}

func TestEngineStopBeforeAnyView(t *testing.T) {
	h := newHarness(t, 1, matureConfig(2))
	h.engines[h.members[0]].Stop() // must be safe before any view
}

func TestSetNotifierReceivesAnnouncements(t *testing.T) {
	h := newHarness(t, 1, matureConfig(3))
	e := h.engines[h.members[0]]
	var announced []netip.Addr
	e.SetNotifier(recorder{&announced})
	h.setPartition(h.all())
	h.pump()
	if len(announced) != 3 {
		t.Fatalf("announced %d addresses, want 3", len(announced))
	}
	e.SetNotifier(nil) // must not panic on later releases
	e.OnDisconnect()
}

type recorder struct{ out *[]netip.Addr }

func (r recorder) Announce(a netip.Addr) { *r.out = append(*r.out, a) }
func (r recorder) Withdraw(netip.Addr)   {}

var _ arp.Notifier = recorder{}

func TestReleaseFailureIsLogged(t *testing.T) {
	h := newHarness(t, 2, matureConfig(2))
	a := h.members[0]
	h.backends[a].FailRelease = func(netip.Addr) error { return errors.New("stuck address") }
	h.setPartition([]core.MemberID{a})
	h.pump()
	// Force a release via disconnect.
	h.engines[a].OnDisconnect()
	if !h.logs[a].contains("release", "stuck address") {
		t.Fatalf("release failure not logged: %q", h.logs[a].lines)
	}
}

// TestOwnershipHooksChainInRegistrationOrder pins the Add semantics two
// production observers rely on when they share an engine (the router's
// routing-participation switch and the invariant monitor): both hooks see
// every transition, first-registered first.
func TestOwnershipHooksChainInRegistrationOrder(t *testing.T) {
	h := newHarness(t, 1, matureConfig(2))
	id := h.members[0]
	var calls []string
	for _, name := range []string{"first", "second"} {
		name := name
		h.engines[id].AddOwnershipHook(func(g string, owned bool, viewID string) {
			calls = append(calls, fmt.Sprintf("%s %s %v %s", name, g, owned, viewID))
		})
	}
	h.setPartition(h.all())
	h.pump()
	h.engines[id].OnDisconnect()
	want := []string{
		"first vip00 true v1.0", "second vip00 true v1.0",
		"first vip01 true v1.0", "second vip01 true v1.0",
		"first vip00 false v1.0", "second vip00 false v1.0",
		"first vip01 false v1.0", "second vip01 false v1.0",
	}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Fatalf("hook calls =\n%q\nwant\n%q", calls, want)
	}
	// The harness's own hook, registered before both, saw the same stream.
	if len(h.owns[id]) != 4 {
		t.Fatalf("harness hook saw %d transitions, want 4", len(h.owns[id]))
	}
}

func TestMatureMsgIdempotent(t *testing.T) {
	cfg := core.Config{Groups: groups(4), MatureTimeout: 3 * time.Second}
	h := newHarness(t, 2, cfg)
	h.setPartition(h.all())
	h.pump()
	// Both servers' timers fire in the same window: two MATURE casts, the
	// second a no-op.
	h.runFor(5 * time.Second)
	h.checkComponent(h.all(), true)
	total := 0
	for _, id := range h.members {
		total += len(h.engines[id].Snapshot().Owned)
	}
	if total != 4 {
		t.Fatalf("coverage %d, want 4", total)
	}
}

func TestBalanceTimerNoCastWhenAlreadyBalanced(t *testing.T) {
	cfg := matureConfig(4)
	cfg.BalanceTimeout = 3 * time.Second
	h := newHarness(t, 2, cfg)
	h.setPartition(h.all())
	h.pump()
	// Initial allocation is already 2/2: the timer must fire without
	// casting a BALANCE_MSG.
	h.sim.RunFor(4 * time.Second)
	if len(h.queue) != 0 {
		t.Fatalf("balanced cluster cast %d messages on the balance timer", len(h.queue))
	}
	// And the timer re-armed: skew it later and verify balancing happens.
	before := h.traced(obs.KindBalanceApply)
	// Isolate both: each covers everything; the merge hands all conflicted
	// groups to the later member, leaving a 0/4 skew for the balancer.
	h.setPartition([]core.MemberID{h.members[0]}, []core.MemberID{h.members[1]})
	h.pump()
	h.setPartition(h.all())
	h.pump()
	counts := ownerCounts(h.engines[h.members[0]])
	if counts[h.members[1]] != 4 {
		t.Fatalf("setup: expected full skew, got %v", counts)
	}
	h.runFor(4 * time.Second)
	if h.traced(obs.KindBalanceApply) == before {
		t.Fatal("skewed cluster never rebalanced after a re-armed timer")
	}
}

func TestMatureTimeoutDefaultApplied(t *testing.T) {
	cfg := core.Config{Groups: groups(2)} // MatureTimeout zero → 5s default
	h := newHarness(t, 1, cfg)
	h.setPartition(h.all())
	h.pump()
	h.runFor(4 * time.Second)
	if n := len(h.engines[h.members[0]].Snapshot().Owned); n != 0 {
		t.Fatalf("owned %d before the default maturity timeout", n)
	}
	h.runFor(2 * time.Second)
	h.checkComponent(h.all(), true)
}

func TestCastFailureIsLogged(t *testing.T) {
	clock := sim.New(1)
	log := &captureLog{}
	e, err := core.NewEngine(matureConfig(2), core.Deps{
		Self:  "m00",
		Cast:  func([]byte) error { return errors.New("network unplugged") },
		IPs:   ipmgr.New(&ipmgr.FakeBackend{}),
		Clock: clock,
		Log:   log,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	e.OnView(core.View{ID: "v1", Members: []core.MemberID{"m00"}})
	if !log.contains("cast state", "network unplugged") {
		t.Fatalf("cast failure not logged: %q", log.lines)
	}
}

func TestViewWithSingleMemberAfterLargerView(t *testing.T) {
	h := newHarness(t, 3, matureConfig(6))
	h.setPartition(h.all())
	h.pump()
	// Everyone else vanishes: three singleton components at once.
	h.setPartition([]core.MemberID{h.members[0]}, []core.MemberID{h.members[1]}, []core.MemberID{h.members[2]})
	h.pump()
	for _, id := range h.members {
		st := h.engines[id].Snapshot()
		if st.State != core.StateRun || len(st.Owned) != 6 {
			t.Fatalf("%s: state=%v owned=%d, want run with full coverage", id, st.State, len(st.Owned))
		}
	}
}

func TestQuickBalancedAllocationInvariants(t *testing.T) {
	// Property: for any churn pattern, after balancing every group is
	// covered and the per-member spread is at most one.
	for seed := int64(0); seed < 15; seed++ {
		cfg := matureConfig(9)
		cfg.BalanceTimeout = 2 * time.Second
		h := newHarness(t, 3, cfg)
		rng := sim.New(seed).Rand()
		h.setPartition(h.all())
		h.pump()
		// Random fail/merge churn.
		for i := 0; i < 3; i++ {
			k := 1 + rng.Intn(2)
			if k == 1 {
				h.setPartition(h.all())
			} else {
				cut := 1 + rng.Intn(2)
				h.setPartition(h.members[:cut], h.members[cut:])
			}
			h.pump()
		}
		h.setPartition(h.all())
		h.pump()
		h.runFor(3 * time.Second)
		h.checkComponent(h.all(), true)
		counts := ownerCounts(h.engines[h.members[0]])
		minC, maxC := 9, 0
		for _, id := range h.members {
			n := counts[id]
			if n < minC {
				minC = n
			}
			if n > maxC {
				maxC = n
			}
		}
		if maxC-minC > 1 {
			t.Fatalf("seed %d: allocation spread %d (%v)", seed, maxC-minC, counts)
		}
	}
}

func TestOwnedSortedInSnapshot(t *testing.T) {
	h := newHarness(t, 1, matureConfig(5))
	h.setPartition(h.all())
	h.pump()
	owned := h.engines[h.members[0]].Snapshot().Owned
	for i := 1; i < len(owned); i++ {
		if owned[i-1] >= owned[i] {
			t.Fatalf("Owned not sorted: %v", owned)
		}
	}
	want := fmt.Sprintf("vip%02d", 0)
	if owned[0] != want {
		t.Fatalf("owned[0] = %q, want %q", owned[0], want)
	}
}
