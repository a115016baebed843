package ipmgr

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestManagerIdempotency(t *testing.T) {
	be := &FakeBackend{}
	m := New(be)
	a := addr("10.0.1.1")
	if err := m.Acquire(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(a); err != nil {
		t.Fatal(err)
	}
	if len(be.Ops) != 1 {
		t.Fatalf("backend saw %d ops, want 1: %v", len(be.Ops), be.Ops)
	}
	if !m.held[a] {
		t.Fatal("not held after acquire")
	}
	if err := m.Release(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(a); err != nil {
		t.Fatal(err)
	}
	if len(be.Ops) != 2 {
		t.Fatalf("backend saw %d ops, want 2: %v", len(be.Ops), be.Ops)
	}
	if m.held[a] {
		t.Fatal("still held after release")
	}
}

func TestManagerAcquireFailureNotHeld(t *testing.T) {
	injected := errors.New("nope")
	be := &FakeBackend{FailAcquire: func(netip.Addr) error { return injected }}
	m := New(be)
	if err := m.Acquire(addr("10.0.1.1")); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if m.held[addr("10.0.1.1")] {
		t.Fatal("failed acquire left the address held")
	}
}

func TestNICBackend(t *testing.T) {
	s := sim.New(1)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	h := nw.NewHost("a")
	nic := h.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	m := New(&NICBackend{NIC: nic})
	vip := addr("10.0.0.100")
	if err := m.Acquire(vip); err != nil {
		t.Fatal(err)
	}
	if !nic.HasAddr(vip) {
		t.Fatal("NIC missing acquired address")
	}
	if err := m.Release(vip); err != nil {
		t.Fatal(err)
	}
	if nic.HasAddr(vip) {
		t.Fatal("NIC kept released address")
	}
}

func TestExecBackendDryRun(t *testing.T) {
	m := New(&ExecBackend{Device: "eth0", DryRun: true})
	if err := m.Acquire(addr("192.0.2.10")); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(addr("192.0.2.10")); err != nil {
		t.Fatal(err)
	}
}

func TestExecBackendPrefixBits(t *testing.T) {
	for bits, want := range map[int]int{0: 32, 24: 24, 32: 32, 33: 32} {
		if got := (&ExecBackend{PrefixBits: bits}).bits(); got != want {
			t.Fatalf("PrefixBits %d applies /%d, want /%d", bits, got, want)
		}
	}
}

type failLogSink struct{ lines []string }

func (s *failLogSink) Logf(format string, args ...any) {
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
}

func TestLoggingBackendPassesThroughAndLogs(t *testing.T) {
	sink := &failLogSink{}
	be := &LoggingBackend{Inner: &FakeBackend{}, Log: sink}
	if err := be.Acquire(addr("10.0.1.1")); err != nil {
		t.Fatal(err)
	}
	if err := be.Release(addr("10.0.1.1")); err != nil {
		t.Fatal(err)
	}
	if len(sink.lines) != 2 {
		t.Fatalf("logged %d lines, want 2: %v", len(sink.lines), sink.lines)
	}
	failing := &LoggingBackend{
		Inner: &FakeBackend{FailAcquire: func(netip.Addr) error { return errors.New("boom") }},
		Log:   sink,
	}
	if err := failing.Acquire(addr("10.0.1.2")); err == nil {
		t.Fatal("error swallowed")
	}
	if !strings.Contains(sink.lines[len(sink.lines)-1], "failed") {
		t.Fatal("failure not logged")
	}
}
