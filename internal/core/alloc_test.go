package core

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"wackamole/internal/sim"
)

// nopIPs is an AddressOwner that owns nothing.
type nopIPs struct{}

func (nopIPs) Acquire(netip.Addr) error { return nil }
func (nopIPs) Release(netip.Addr) error { return nil }

// TestStateMsgInGatherDoesNotAllocate pins the merge the paper's algorithm
// repeats at every view: one member's STATE_MSG — twelve members, a hundred
// groups, no preferences — applied by an engine in GATHER. The message is
// validated and walked where it lies, a name is looked up without being built,
// and a claim compares two view positions.
func TestStateMsgInGatherDoesNotAllocate(t *testing.T) {
	cfg := Config{StartMature: true}
	var names []string
	for i := 0; i < 100; i++ {
		names = append(names, fmt.Sprintf("vip%03d", i))
		cfg.Groups = append(cfg.Groups, VIPGroup{Name: names[i], Addrs: []netip.Addr{netip.AddrFrom4([4]byte{10, 1, 0, byte(i + 1)})}})
	}
	view := View{ID: "10.0.0.1:4803/7:3"}
	for i := 0; i < 12; i++ {
		view.Members = append(view.Members, MemberID(fmt.Sprintf("10.0.0.%d:4803/wackd", 10+i)))
	}
	e, err := NewEngine(cfg, Deps{Self: view.Members[3], Cast: func([]byte) error { return nil }, IPs: nopIPs{}, Clock: sim.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	e.OnView(view)
	// Two members claim overlapping thirds of the table, so the walk resolves
	// conflicts as well as first claims; the other ten never report, so the
	// engine stays in GATHER.
	a := stateMsg{ViewID: view.ID, Mature: true, Owned: names[:40]}.encode()
	b := stateMsg{ViewID: view.ID, Mature: true, Owned: names[20:60]}.encode()
	if avg := testing.AllocsPerRun(200, func() {
		e.OnMessage(view.Members[7], a)
		e.OnMessage(view.Members[5], b)
	}); avg != 0 {
		t.Fatalf("two STATE_MSGs in GATHER allocate %.0f, want 0", avg)
	}
	st := e.Snapshot()
	if st.State != stateGather || st.Table[names[0]] != view.Members[7] || st.Table[names[30]] != view.Members[7] || st.Table[names[50]] != view.Members[5] {
		t.Fatalf("after the merge: state %v, owners %q %q %q", st.State, st.Table[names[0]], st.Table[names[30]], st.Table[names[50]])
	}
}

// TestViewCostsTheEngineOneCast: taking a view — the member list copied over
// the last one, the per-view lists cleared in place, the table wiped — costs
// the STATE_MSG it ends in, and that is one buffer of exactly the message's
// size, because Deps.Cast owns what it is given.
func TestViewCostsTheEngineOneCast(t *testing.T) {
	cfg := Config{StartMature: true}
	for i := 0; i < 100; i++ {
		cfg.Groups = append(cfg.Groups, VIPGroup{Name: fmt.Sprintf("vip%03d", i), Addrs: []netip.Addr{netip.AddrFrom4([4]byte{10, 1, 0, byte(i + 1)})}})
	}
	view := View{ID: "10.0.0.1:4803/7:3", Members: []MemberID{"a/wackd", "b/wackd", "c/wackd"}}
	var cast []byte
	e, err := NewEngine(cfg, Deps{Self: "b/wackd", Cast: func(p []byte) error { cast = p; return nil }, IPs: nopIPs{}, Clock: sim.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Settle alone first, so that the STATE_MSG has a hundred groups to name.
	e.OnView(View{ID: "boot", Members: []MemberID{"b/wackd"}})
	e.OnMessage("b/wackd", cast)
	if st := e.Snapshot(); st.State != StateRun || len(st.Owned) != 100 {
		t.Fatalf("alone: state %v owning %d groups", st.State, len(st.Owned))
	}
	if avg := testing.AllocsPerRun(200, func() { e.OnView(view) }); avg != 1 {
		t.Fatalf("OnView allocates %.0f, want 1: the cast", avg)
	}
	if d, err := decode(cast); err != nil || len(cast) != cap(cast) || len(d.state.build().Owned) != 100 {
		t.Fatalf("cast of %d bytes in a buffer of %d decodes to %+v, %v", len(cast), cap(cast), d.state.build(), err)
	}
}

// TestForgedAllocCountIsRejectedCheaply is the BALANCE decoder's count bomb:
// eight bytes whose pair count says 65 535. Believing the count meant 65 535
// appended pairs — 11 MB — before the length check rejected the message.
func TestForgedAllocCountIsRejectedCheaply(t *testing.T) {
	for _, k := range []kind{kindBalance, kindAlloc} {
		bomb := []byte{coreMagic, coreVer, byte(k), 0, 1, 'v', 0xff, 0xff}
		var err error
		if n := allocatedBy(func() { _, err = decode(bomb) }); n > 4<<10 {
			t.Fatalf("kind %d: rejecting a forged pair count allocated %d bytes", k, n)
		}
		if err == nil {
			t.Fatalf("kind %d: forged pair count accepted", k)
		}
	}
}

// allocatedBy reports the bytes f allocates: the least of five runs, because
// TotalAlloc is the whole process's and the runtime's own goroutines only
// ever add to it.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
