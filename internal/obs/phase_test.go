package obs

import (
	"testing"
	"time"
)

var phaseEpoch = time.Date(2003, 6, 22, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return phaseEpoch.Add(d) }

// failoverEvents is a miniature but structurally faithful trial trace: a
// fault at t=1s, suspicion at 2s, install at 3s, acquire at 3.5s, with
// warm-up noise before the fault that the analyzer must ignore.
func failoverEvents() []Event {
	return []Event{
		{At: at(100 * time.Millisecond), Kind: KindGatherEnter, Node: "d1", Detail: "boot"},
		{At: at(200 * time.Millisecond), Kind: KindInstall, Node: "d1"},
		{At: at(300 * time.Millisecond), Kind: KindAcquire, Node: "d2/wackd", Addr: "10.0.0.100", Group: "web1"},
		{At: at(1 * time.Second), Kind: KindFault, Node: "server2", Detail: "nic0"},
		{At: at(2 * time.Second), Kind: KindGatherEnter, Node: "d1", Detail: "fault:d2"},
		{At: at(3 * time.Second), Kind: KindInstall, Node: "d1"},
		{At: at(3500 * time.Millisecond), Kind: KindAcquire, Node: "d1/wackd", Addr: "10.0.0.100", Group: "web1"},
	}
}

func TestFailoverBreakdownPartitionsGap(t *testing.T) {
	gapStart, gapEnd := at(1*time.Second), at(4*time.Second)
	b := FailoverBreakdown(failoverEvents(), gapStart, gapEnd, "10.0.0.100")
	want := Breakdown{
		Detection:   1 * time.Second,        // fault 1s -> gather 2s
		Membership:  1 * time.Second,        // gather 2s -> install 3s
		StateSync:   500 * time.Millisecond, // install 3s -> acquire 3.5s
		ARPTakeover: 500 * time.Millisecond, // acquire 3.5s -> gap end 4s
	}
	if b != want {
		t.Fatalf("breakdown = %+v, want %+v", b, want)
	}
	if b.Total() != gapEnd.Sub(gapStart) {
		t.Fatalf("Total = %v, want the gap %v", b.Total(), gapEnd.Sub(gapStart))
	}
}

func TestFailoverBreakdownIgnoresWarmupAcquires(t *testing.T) {
	// The pre-fault acquire of the same address (initial allocation) must
	// not be mistaken for the recovery acquire.
	gapStart, gapEnd := at(1*time.Second), at(4*time.Second)
	b := FailoverBreakdown(failoverEvents(), gapStart, gapEnd, "10.0.0.100")
	if b.StateSync != 500*time.Millisecond {
		t.Fatalf("recovery acquire misattributed: %+v", b)
	}
}

func TestFailoverBreakdownAlwaysSumsToGap(t *testing.T) {
	gapStart, gapEnd := at(1*time.Second), at(4*time.Second)
	cases := map[string][]Event{
		"no events":   nil,
		"only fault":  {{At: at(time.Second), Kind: KindFault}},
		"full trace":  failoverEvents(),
		"late marker": {{At: at(10 * time.Second), Kind: KindGatherEnter, Node: "d1"}},
		"out-of-gap acquire": {
			{At: at(time.Second), Kind: KindFault},
			{At: at(9 * time.Second), Kind: KindAcquire, Node: "d1/wackd", Addr: "10.0.0.100"},
		},
	}
	for name, events := range cases {
		b := FailoverBreakdown(events, gapStart, gapEnd, "10.0.0.100")
		if b.Total() != gapEnd.Sub(gapStart) {
			t.Errorf("%s: Total = %v, want %v (breakdown %+v)", name, b.Total(), gapEnd.Sub(gapStart), b)
		}
		if b.Detection < 0 || b.Membership < 0 || b.StateSync < 0 || b.ARPTakeover < 0 {
			t.Errorf("%s: negative phase: %+v", name, b)
		}
	}
}

func TestFailoverBreakdownMissingMarkersCollapseToZero(t *testing.T) {
	gapStart, gapEnd := at(1*time.Second), at(4*time.Second)
	b := FailoverBreakdown(nil, gapStart, gapEnd, "10.0.0.100")
	if b.Detection != 0 || b.Membership != 0 || b.StateSync != 0 {
		t.Fatalf("missing markers did not collapse: %+v", b)
	}
	if b.ARPTakeover != gapEnd.Sub(gapStart) {
		t.Fatalf("remainder phase = %v, want full gap", b.ARPTakeover)
	}
}

// TestExplainFailoverNeedsEveryAnchorInsideTheGap: a gap is explained only
// when the gather-enter, the acquirer's install and the target's acquire
// all lie inside it; the detector and acquirer are named only when their
// events do.
func TestExplainFailoverNeedsEveryAnchorInsideTheGap(t *testing.T) {
	full := failoverEvents()
	noInstall := append(append([]Event(nil), full[:5]...), full[6])
	for _, tc := range []struct {
		name               string
		events             []Event
		end                time.Duration
		detector, acquirer string
		explained          bool
	}{
		{"whole fail-over", full, 4 * time.Second, "d1", "d1/wackd", true},
		{"acquire after the gap", full, 3200 * time.Millisecond, "d1", "", false},
		{"no install", noInstall, 4 * time.Second, "d1", "d1/wackd", false},
		{"no events", nil, 4 * time.Second, "", "", false},
	} {
		x := ExplainFailover(tc.events, at(time.Second), at(tc.end), "10.0.0.100")
		if x.Detector != tc.detector || x.Acquirer != tc.acquirer || x.Explained != tc.explained {
			t.Errorf("%s: detector=%q acquirer=%q explained=%v, want %q %q %v",
				tc.name, x.Detector, x.Acquirer, x.Explained, tc.detector, tc.acquirer, tc.explained)
		}
		if x.Phases != FailoverBreakdown(tc.events, at(time.Second), at(tc.end), "10.0.0.100") {
			t.Errorf("%s: phases %+v differ from FailoverBreakdown", tc.name, x.Phases)
		}
	}
	// The loaded workload runs the search once per trial.
	if n := testing.AllocsPerRun(100, func() {
		ExplainFailover(full, at(time.Second), at(4*time.Second), "10.0.0.100")
	}); n != 0 {
		t.Fatalf("ExplainFailover allocates %v objects per call", n)
	}
}

func TestBreakdownJSONUsesSecondsConvention(t *testing.T) {
	b := Breakdown{Detection: 1500 * time.Millisecond, ARPTakeover: 250 * time.Millisecond}
	got, err := b.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"detection_s":1.5,"membership_s":0,"state_sync_s":0,"arp_takeover_s":0.25}`
	if string(got) != want {
		t.Fatalf("json = %s, want %s", got, want)
	}
}

func TestOwnershipTimeline(t *testing.T) {
	events := []Event{
		{At: at(1 * time.Second), Kind: KindAcquire, Node: "d1", Addr: "10.0.0.1"},
		{At: at(2 * time.Second), Kind: KindAcquire, Node: "d2", Addr: "10.0.0.2"},
		// Re-acquire of an address already held is folded into the open span.
		{At: at(3 * time.Second), Kind: KindAcquire, Node: "d1", Addr: "10.0.0.1"},
		{At: at(4 * time.Second), Kind: KindRelease, Node: "d1", Addr: "10.0.0.1"},
		// Transient double ownership during a merge: d3 acquires before d2
		// releases.
		{At: at(5 * time.Second), Kind: KindAcquire, Node: "d3", Addr: "10.0.0.2"},
		{At: at(6 * time.Second), Kind: KindRelease, Node: "d2", Addr: "10.0.0.2"},
		// Release without a matching open span is ignored.
		{At: at(7 * time.Second), Kind: KindRelease, Node: "d9", Addr: "10.0.0.9"},
	}
	tl := OwnershipTimeline(events)
	if len(tl) != 2 {
		t.Fatalf("addresses = %d, want 2 (%v)", len(tl), tl)
	}
	one := tl["10.0.0.1"]
	if len(one) != 1 || one[0].Owner != "d1" || !one[0].From.Equal(at(1*time.Second)) || !one[0].To.Equal(at(4*time.Second)) {
		t.Fatalf("10.0.0.1 spans = %+v", one)
	}
	two := tl["10.0.0.2"]
	if len(two) != 2 {
		t.Fatalf("10.0.0.2 spans = %+v", two)
	}
	if two[0].Owner != "d2" || !two[0].To.Equal(at(6*time.Second)) {
		t.Fatalf("d2 span = %+v", two[0])
	}
	if two[1].Owner != "d3" || !two[1].To.IsZero() {
		t.Fatalf("d3 span should still be open: %+v", two[1])
	}
	if !two[1].From.Before(two[0].To) {
		t.Fatal("merge overlap lost")
	}
}

func TestDaemonOf(t *testing.T) {
	for in, want := range map[string]string{
		"d1/wackd": "d1", "d1": "d1", "": "", "a/b/c": "a",
	} {
		if got := daemonOf(in); got != want {
			t.Fatalf("daemonOf(%q) = %q, want %q", in, got, want)
		}
	}
}
