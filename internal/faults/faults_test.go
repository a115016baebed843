package faults

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

func TestParseShapeRoundTrip(t *testing.T) {
	specs := []string{
		"flap",
		"flap()",
		"flap(period=800ms,duty=0.35)",
		"flap(period=2s,duty=0.7,jitter=20ms)",
		"graylink",
		"graylink(rxloss=0.3,txloss=0)",
		"graylink(rxloss=0,txloss=0,rxdelay=5ms,txdelay=1ms)",
		"slownode",
		"slownode(stall=120ms)",
		" flap( period=1s , duty=0.5 ) ",
	}
	for _, spec := range specs {
		s, err := parseShape(spec)
		if err != nil {
			t.Fatalf("parseShape(%q): %v", spec, err)
		}
		back, err := parseShape(s.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", s.String(), spec, err)
		}
		if back != s {
			t.Fatalf("round trip of %q: %+v != %+v", spec, back, s)
		}
	}
}

func TestParseShapeErrors(t *testing.T) {
	bad := []string{
		"",
		"flop",
		"flap(period=0s)",
		"flap(duty=0)",
		"flap(duty=1)",
		"flap(duty=banana)",
		"flap(jitter=-5ms)",
		"flap(stall=1s)",
		"flap(period=1s",
		"flap(period)",
		"graylink(rxloss=1.5)",
		"graylink(rxloss=0,txloss=0,rxdelay=0,txdelay=0)",
		"graylink(rxdelay=-1ms,rxloss=0.1)",
		"slownode(stall=0s)",
		"slownode(period=1s)",
	}
	for _, spec := range bad {
		if _, err := parseShape(spec); err == nil {
			t.Errorf("parseShape(%q): expected error, got none", spec)
		}
	}
}

func TestParseProgram(t *testing.T) {
	shapes, err := ParseProgram("flap(period=400ms,duty=0.5)+graylink(rxloss=0.2,txloss=0.1,rxdelay=0s,txdelay=0s)")
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 2 || shapes[0].Kind != Flap || shapes[1].Kind != grayLink {
		t.Fatalf("unexpected program: %+v", shapes)
	}
	for _, sh := range shapes {
		back, err := parseShape(sh.String())
		if err != nil {
			t.Fatal(err)
		}
		if back != sh {
			t.Fatalf("shape round trip: %+v != %+v", back, sh)
		}
	}
	if _, err := ParseProgram(""); err == nil {
		t.Error("empty program: expected error")
	}
	if _, err := ParseProgram("flap+"); err == nil {
		t.Error("trailing +: expected error")
	}
}

// twoHosts builds a minimal segment with two attached hosts.
func twoHosts(seed int64) (*sim.Sim, *netsim.Network, *netsim.NIC, *netsim.NIC) {
	s := sim.New(seed)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	a := nw.NewHost("a").AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	b := nw.NewHost("b").AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.2/24"))
	return s, nw, a, b
}

func TestFlapCyclesInterface(t *testing.T) {
	s, _, a, _ := twoHosts(1)
	bind, err := ApplyProgram(s, a, "flap(period=1s,duty=0.5,jitter=0s)")
	if err != nil {
		t.Fatal(err)
	}
	if a.Up() {
		t.Fatal("flap should take the interface down at apply time")
	}
	// Down phase is (1-duty)*period = 500ms; sample inside each phase.
	s.RunFor(250 * time.Millisecond)
	if a.Up() {
		t.Error("expected down at t=250ms")
	}
	s.RunFor(500 * time.Millisecond) // t=750ms: inside the first up phase
	if !a.Up() {
		t.Error("expected up at t=750ms")
	}
	s.RunFor(500 * time.Millisecond) // t=1.25s: second down phase
	if a.Up() {
		t.Error("expected down at t=1.25s")
	}
	bind.Stop()
	if !a.Up() {
		t.Error("Stop should restore the interface")
	}
	up := a.Up()
	s.RunFor(3 * time.Second)
	if a.Up() != up {
		t.Error("stopped binding kept flapping")
	}
}

func TestGrayLinkAndSlowNodeApplyAndStop(t *testing.T) {
	s, nw, a, _ := twoHosts(1)
	// drops sends 50 datagrams from a to b and returns the frames lost.
	drops := func() uint64 {
		before := nw.Counters().FramesDropped
		for i := 0; i < 50; i++ {
			_ = a.Host().SendUDP(netip.AddrPort{}, netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 9000), []byte("x"))
			s.RunFor(10 * time.Millisecond)
		}
		s.RunFor(time.Second)
		return nw.Counters().FramesDropped - before
	}
	bind, err := ApplyProgram(s, a, "graylink(rxloss=0.5,txloss=0.25,rxdelay=1ms,txdelay=2ms)+slownode(stall=10ms)")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Up() {
		t.Fatal("graylink must leave the interface up (lossy but alive)")
	}
	if drops() == 0 {
		t.Fatal("graylink should impair the interface")
	}
	bind.Stop()
	bind.Stop() // idempotent
	if n := drops(); n != 0 {
		t.Errorf("Stop should clear impairments; %d frames still lost", n)
	}
}

// TestGrayLinkDropsFrames checks the directional impairment actually loses
// traffic: with txloss=1 on the sender nothing arrives, with zero loss
// everything does.
func TestGrayLinkDropsFrames(t *testing.T) {
	for _, spec := range []string{"graylink(rxloss=0,txloss=0.999999,rxdelay=0s,txdelay=0s)", ""} {
		s, nw, a, b := twoHosts(7)
		got := 0
		if _, err := b.Host().BindUDP(netip.Addr{}, 9000, func(src, dst netip.AddrPort, payload []byte) {
			got++
		}); err != nil {
			t.Fatal(err)
		}
		if spec != "" {
			if _, err := ApplyProgram(s, a, spec); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			s.After(time.Duration(i)*10*time.Millisecond, func() {
				_ = a.Host().SendUDP(netip.AddrPort{}, netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 9000), []byte("x"))
			})
		}
		s.RunFor(2 * time.Second)
		if spec == "" && got != 50 {
			t.Errorf("clean link delivered %d/50", got)
		}
		if spec != "" && got > 2 {
			t.Errorf("txloss~1 link delivered %d/50 frames", got)
		}
		_ = nw
	}
}

// traceRun drives a flap+graylink program over live traffic and returns the
// receiver's log of (virtual time, payload) and the network's counters. Same
// seed must give byte-identical output.
func traceRun(seed int64) (string, netsim.Counters) {
	s, nw, a, b := twoHosts(seed)
	var sb strings.Builder
	if _, err := b.Host().BindUDP(netip.Addr{}, 9000, func(src, dst netip.AddrPort, payload []byte) {
		fmt.Fprintf(&sb, "%v %s\n", s.Elapsed(), payload)
	}); err != nil {
		panic(err)
	}
	if _, err := ApplyProgram(s, a, "flap(period=300ms,duty=0.5,jitter=40ms)+graylink(rxloss=0.2,txloss=0.2,rxdelay=500us,txdelay=0s)"); err != nil {
		panic(err)
	}
	if _, err := ApplyProgram(s, b, "slownode(stall=5ms)"); err != nil {
		panic(err)
	}
	dst := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 9000)
	for i := 0; i < 200; i++ {
		s.After(time.Duration(i)*7*time.Millisecond, func() {
			_ = a.Host().SendUDP(netip.AddrPort{}, dst, []byte(fmt.Sprint("payload ", i)))
		})
	}
	s.RunFor(3 * time.Second)
	return sb.String(), nw.Counters()
}

// TestFlapScheduleDeterminism pins the determinism contract of fault
// programs: same seed and topology deliver the same datagrams at the same
// virtual instants and count the same frames. Run with -count=5 it must
// still pass (no state leaks between runs).
func TestFlapScheduleDeterminism(t *testing.T) {
	first, counters := traceRun(42)
	if counters.FramesDropped == 0 {
		t.Fatal("run exercised no drops; impairments not active?")
	}
	for i := 0; i < 3; i++ {
		if got, c := traceRun(42); got != first || c != counters {
			t.Fatalf("run %d diverged from first run", i+2)
		}
	}
	if got, _ := traceRun(43); got == first {
		t.Fatal("different seed produced an identical delivery log; RNG not wired?")
	}
}

// TestFaultShapeTickAllocs pins the steady-state flap tick at zero
// allocations: SetUp toggles and the pooled sim.Post reschedule must not
// allocate once the simulator's internals are warm.
func TestFaultShapeTickAllocs(t *testing.T) {
	s, _, a, _ := twoHosts(3)
	if _, err := ApplyProgram(s, a, "flap(period=2ms,duty=0.5,jitter=500us)"); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second) // warm the event pool
	avg := testing.AllocsPerRun(100, func() {
		s.RunFor(2 * time.Millisecond) // one full flap cycle
	})
	if avg != 0 {
		t.Fatalf("flap tick allocates: %v allocs per cycle", avg)
	}
}

func BenchmarkFaultShapeTick(b *testing.B) {
	s, _, a, _ := twoHosts(3)
	if _, err := ApplyProgram(s, a, "flap(period=2ms,duty=0.5,jitter=500us)"); err != nil {
		b.Fatal(err)
	}
	s.RunFor(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFor(2 * time.Millisecond)
	}
}
