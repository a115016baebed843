package obs

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"wackamole/internal/metrics"
)

// fakeWall is a settable wall clock for driving HLC edge cases.
type fakeWall struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeWall) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeWall) set(t time.Time) {
	f.mu.Lock()
	f.t = t
	f.mu.Unlock()
}

func hat(ns int64) time.Time { return time.Unix(0, ns) }

func TestHLCNowStrictlyIncreasing(t *testing.T) {
	w := &fakeWall{t: hat(1000)}
	c := NewHLCClock(w.now, "a")

	prev := c.Now()
	// Stalled clock: logical counter must carry monotonicity.
	for i := 0; i < 100; i++ {
		ts := c.Now()
		if ts.Compare(prev) <= 0 {
			t.Fatalf("Now not strictly increasing: %v then %v", prev, ts)
		}
		prev = ts
	}
	// Clock stepping backwards must not regress timestamps.
	w.set(hat(500))
	ts := c.Now()
	if ts.Compare(prev) <= 0 {
		t.Fatalf("Now regressed after wall step back: %v then %v", prev, ts)
	}
	// Advancing wall time resets the logical counter.
	w.set(hat(5000))
	ts = c.Now()
	if ts.Wall != 5000 || ts.Logical != 0 {
		t.Fatalf("advanced wall should yield {5000,0}, got %v", ts)
	}
}

func TestHLCObserveMergesAheadRemote(t *testing.T) {
	w := &fakeWall{t: hat(1000)}
	c := NewHLCClock(w.now, "a")

	// Remote runs 9µs ahead: merged timestamp adopts the remote wall and
	// advances past the remote logical component.
	merged := c.Observe(HLC{Wall: 10000, Logical: 7})
	if merged.Wall != 10000 || merged.Logical != 8 {
		t.Fatalf("merge with ahead remote: got %v, want {10000,8}", merged)
	}
	// Local events after the receive still sort after it.
	next := c.Now()
	if next.Compare(merged) <= 0 {
		t.Fatalf("Now after Observe not increasing: %v then %v", merged, next)
	}
	if got := c.maxSkew(); got != 9000*time.Nanosecond {
		t.Fatalf("MaxSkew = %v, want 9µs", got)
	}
}

func TestHLCObserveBehindRemoteAndEqualWalls(t *testing.T) {
	w := &fakeWall{t: hat(10000)}
	c := NewHLCClock(w.now, "a")
	first := c.Now() // {10000, 0}

	// Remote behind local: local wall dominates, logical bumps.
	w.set(hat(10000)) // stalled
	merged := c.Observe(HLC{Wall: 2000, Logical: 90})
	if merged.Wall != 10000 || merged.Logical != first.Logical+1 {
		t.Fatalf("merge with behind remote: got %v", merged)
	}

	// Equal walls: logical is max(local, remote)+1.
	merged = c.Observe(HLC{Wall: 10000, Logical: 40})
	if merged.Wall != 10000 || merged.Logical != 41 {
		t.Fatalf("merge with equal walls: got %v, want {10000,41}", merged)
	}

	// Physical clock ahead of both: wall wins, logical resets.
	w.set(hat(99000))
	merged = c.Observe(HLC{Wall: 10000, Logical: 80})
	if merged.Wall != 99000 || merged.Logical != 0 {
		t.Fatalf("merge with fresh wall: got %v, want {99000,0}", merged)
	}
}

func TestHLCObserveZeroRemoteOnlyAdvances(t *testing.T) {
	w := &fakeWall{t: hat(1000)}
	c := NewHLCClock(w.now, "a")
	first := c.Now()
	merged := c.Observe(HLC{})
	if merged.Compare(first) <= 0 {
		t.Fatalf("Observe(zero) must still advance: %v then %v", first, merged)
	}
	if c.maxSkew() != 0 {
		t.Fatalf("zero remote must not register skew, got %v", c.maxSkew())
	}
}

// TestHLCCausalOrderAcrossSkewedNodes is the property the forensics layer
// stands on: with node B's wall clock far behind node A's, a message-passing
// chain A→B→A still yields HLC timestamps that order send before receive.
func TestHLCCausalOrderAcrossSkewedNodes(t *testing.T) {
	wa := &fakeWall{t: hat(1_000_000)}
	wb := &fakeWall{t: hat(10)} // ~1ms behind
	a := NewHLCClock(wa.now, "a")
	b := NewHLCClock(wb.now, "b")

	send1 := a.Now()
	recv1 := b.Observe(send1)
	evB := b.Now() // an event B records after the receive
	send2 := b.Now()
	recv2 := a.Observe(send2)

	chain := []HLC{send1, recv1, evB, send2, recv2}
	for i := 1; i < len(chain); i++ {
		if chain[i].Compare(chain[i-1]) <= 0 {
			t.Fatalf("causal chain out of order at %d: %v then %v", i, chain[i-1], chain[i])
		}
	}
	// B's merged timestamps stay near A's wall time, not B's skewed one.
	if recv1.Wall < send1.Wall {
		t.Fatalf("receive wall %d fell behind send wall %d", recv1.Wall, send1.Wall)
	}
	if b.maxSkew() == 0 {
		t.Fatal("skewed merge should have recorded nonzero MaxSkew")
	}
}

// TestHLCTieBreakByNode verifies the merge layers' total order is
// deterministic: identical (wall, logical) pairs from different nodes are
// ordered by node identity, so repeated merges of the same bundles agree.
func TestHLCTieBreakByNode(t *testing.T) {
	type stamped struct {
		ts   HLC
		node string
	}
	less := func(a, b stamped) bool {
		if c := a.ts.Compare(b.ts); c != 0 {
			return c < 0
		}
		return a.node < b.node
	}
	events := []stamped{
		{HLC{Wall: 5, Logical: 1}, "c"},
		{HLC{Wall: 5, Logical: 1}, "a"},
		{HLC{Wall: 5, Logical: 1}, "b"},
		{HLC{Wall: 5, Logical: 0}, "z"},
	}
	for trial := 0; trial < 10; trial++ {
		perm := append([]stamped(nil), events...)
		// Rotate to vary input order deterministically.
		perm = append(perm[trial%len(perm):], perm[:trial%len(perm)]...)
		sort.SliceStable(perm, func(i, j int) bool { return less(perm[i], perm[j]) })
		got := ""
		for _, e := range perm {
			got += e.node
		}
		if got != "zabc" {
			t.Fatalf("trial %d: order %q, want zabc", trial, got)
		}
	}
}

func TestHLCConcurrentUse(t *testing.T) {
	c := NewHLCClock(nil, "a")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := HLC{}
			for i := 0; i < 500; i++ {
				var ts HLC
				if g%2 == 0 {
					ts = c.Now()
				} else {
					ts = c.Observe(HLC{Wall: int64(1000 + i), Logical: uint32(g)})
				}
				if ts.Compare(prev) <= 0 {
					t.Errorf("goroutine %d: non-increasing %v then %v", g, prev, ts)
					return
				}
				prev = ts
			}
		}(g)
	}
	wg.Wait()
}

func TestHLCNilSafe(t *testing.T) {
	var c *HLCClock
	if !c.Now().IsZero() || !c.Observe(HLC{Wall: 1}).IsZero() || !c.latest().IsZero() {
		t.Fatal("nil clock must issue zero timestamps")
	}
	if c.maxSkew() != 0 {
		t.Fatal("nil clock accessors must return zeros")
	}
	c.SetMetrics(nil) // must not panic
}

func TestHLCSkewGauge(t *testing.T) {
	w := &fakeWall{t: hat(1000)}
	c := NewHLCClock(w.now, "n1")
	reg := metrics.New()
	c.SetMetrics(reg)
	c.Observe(HLC{Wall: 4000, Logical: 0})
	snap := reg.Snapshot()
	fam := snap.Family("obs_hlc_skew_ns")
	if fam == nil || len(fam.Series) != 1 {
		t.Fatalf("obs_hlc_skew_ns not exported: %+v", fam)
	}
	if got := fam.Series[0].Value; got != 3000 {
		t.Fatalf("skew gauge = %v, want 3000", got)
	}
}

func TestTracerStampsHLC(t *testing.T) {
	w := &fakeWall{t: hat(777)}
	tr := New(16, w.now)
	c := NewHLCClock(w.now, "a")
	tr.SetHLC(c)
	tr.Emit(Event{Source: SourceGCS, Kind: KindHeartbeatMiss, Node: "a"})
	tr.Emit(Event{Source: SourceGCS, Kind: KindHeartbeatMiss, Node: "a"})
	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("want 2 events, got %d", len(evs))
	}
	if evs[0].HLC.IsZero() || evs[1].HLC.IsZero() {
		t.Fatalf("events not HLC-stamped: %v %v", evs[0].HLC, evs[1].HLC)
	}
	if evs[1].HLC.Compare(evs[0].HLC) <= 0 {
		t.Fatalf("stamps not increasing: %v then %v", evs[0].HLC, evs[1].HLC)
	}
	if tr.clock() != c {
		t.Fatal("Tracer.clock accessor mismatch")
	}
}

func TestEventHLCJSONRoundTrip(t *testing.T) {
	in := Event{
		Seq: 3, At: time.Unix(0, 42).UTC(),
		HLC:    HLC{Wall: 123456789, Logical: 7},
		Source: SourceCore, Kind: KindAcquire, Node: "n1", Group: "g", Addr: "10.0.0.1",
	}
	b, err := in.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := out.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if out.HLC != in.HLC {
		t.Fatalf("HLC round trip: got %v, want %v", out.HLC, in.HLC)
	}
	// Unstamped events stay unstamped (and elide the fields entirely).
	plain := Event{Seq: 1, At: time.Unix(0, 1).UTC(), Source: SourceGCS, Kind: KindHeartbeatMiss}
	b, err = plain.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if s := string(b); contains(s, "hlc_wall") || contains(s, "hlc_logical") {
		t.Fatalf("zero HLC should be elided, got %s", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestHLCString(t *testing.T) {
	if got, want := (HLC{Wall: 12, Logical: 3}).String(), "12.3"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := fmt.Sprint(HLC{}); got != "0.0" {
		t.Fatalf("zero String = %q", got)
	}
}
