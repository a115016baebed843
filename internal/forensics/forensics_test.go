package forensics

import (
	"bytes"
	"testing"
	"time"

	"wackamole/internal/obs"
)

// base anchors all test timestamps; HLC walls are UnixNano values.
var base = time.Unix(1_700_000_000, 0).UTC()

func hlcAt(d time.Duration) obs.HLC {
	return obs.HLC{Wall: base.Add(d).UnixNano()}
}

// writeBundle dumps one flight bundle holding events for node under dir and
// returns the bundle directory. Events pass through a real Tracer and
// FlightRecorder so the test exercises the actual producer format.
func writeBundle(t *testing.T, dir, node string, events []obs.Event, clk *obs.HLCClock) string {
	t.Helper()
	tr := obs.New(256, func() time.Time { return base })
	if clk != nil {
		tr.SetHLC(clk)
	}
	for _, ev := range events {
		tr.Emit(ev)
	}
	f := obs.NewFlightRecorder(obs.FlightConfig{
		Dir: dir, Node: node, Tracer: tr,
		Now: func() time.Time { return base.Add(time.Hour) },
	})
	bdir, err := f.Dump("test")
	if err != nil {
		t.Fatal(err)
	}
	return bdir
}

// failoverEvents builds the three-node scenario the live cluster produces:
// node b owned the target and died; a and c detect, reform, and a acquires.
// Node a's local wall clock runs 5s fast — its At fields are wrong, its HLC
// stamps are right — which is exactly the disagreement the merge must fix.
func failoverEvents(target string) (aEvs, cEvs []obs.Event) {
	skewed := func(d time.Duration) time.Time { return base.Add(d + 5*time.Second) }
	aEvs = []obs.Event{
		{At: skewed(200 * time.Millisecond), HLC: hlcAt(200 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindGatherEnter, Node: "a"},
		{At: skewed(500 * time.Millisecond), HLC: hlcAt(500 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindInstall, Node: "a"},
		{At: skewed(800 * time.Millisecond), HLC: hlcAt(800 * time.Millisecond),
			Source: obs.SourceCore, Kind: obs.KindAcquire, Node: "a", Addr: target},
	}
	cEvs = []obs.Event{
		{At: base.Add(250 * time.Millisecond), HLC: hlcAt(250 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindGatherEnter, Node: "c"},
		{At: base.Add(500 * time.Millisecond), HLC: obs.HLC{Wall: base.Add(500 * time.Millisecond).UnixNano(), Logical: 1},
			Source: obs.SourceGCS, Kind: obs.KindInstall, Node: "c"},
	}
	return aEvs, cEvs
}

func loadFailoverBundles(t *testing.T) []*Bundle {
	t.Helper()
	dir := t.TempDir()
	aEvs, cEvs := failoverEvents("10.0.0.100")
	writeBundle(t, dir, "a", aEvs, nil)
	writeBundle(t, dir, "c", cEvs, nil)
	bundles, err := LoadBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("loaded %d bundles, want 2", len(bundles))
	}
	return bundles
}

func TestMergeOrdersByHLCAndRewritesAt(t *testing.T) {
	bundles := loadFailoverBundles(t)
	m := Merge(bundles)
	if len(m.Events) != 5 {
		t.Fatalf("merged %d events, want 5", len(m.Events))
	}
	// Causal order, not node-a's fast local clock: a@200ms, c@250ms,
	// a@500ms, c@500ms.1 (logical breaks the tie), a@800ms.
	wantNodes := []string{"a", "c", "a", "c", "a"}
	for i, ev := range m.Events {
		if ev.Node != wantNodes[i] {
			t.Fatalf("merged order: event %d from %s, want %s (%+v)", i, ev.Node, wantNodes[i], m.Events)
		}
	}
	// At rewritten from the HLC: node a's 5s-fast wall time is gone.
	if got := m.Events[0].At; !got.Equal(base.Add(200 * time.Millisecond)) {
		t.Fatalf("At not rewritten from HLC: %v", got)
	}
	// Equal walls: logical component orders install a before install c.
	if m.Events[2].Kind != obs.KindInstall || m.Events[2].Node != "a" ||
		m.Events[3].Kind != obs.KindInstall || m.Events[3].Node != "c" {
		t.Fatalf("tie-break order wrong: %+v / %+v", m.Events[2], m.Events[3])
	}
}

func TestMergeUnstampedFallsBackToLocalWall(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "a", []obs.Event{
		{At: base.Add(100 * time.Millisecond), HLC: hlcAt(100 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindHeartbeatMiss, Node: "a"},
		{At: base.Add(300 * time.Millisecond), // no HLC: pre-upgrade event
			Source: obs.SourceGCS, Kind: obs.KindHeartbeatMiss, Node: "a"},
		{At: base.Add(600 * time.Millisecond), HLC: hlcAt(500 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindHeartbeatMiss, Node: "a"},
	}, nil)
	bundles, err := LoadBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := Merge(bundles)
	if len(m.Events) != 3 {
		t.Fatalf("merged %d events, want 3", len(m.Events))
	}
	if m.Events[1].HLC.IsZero() != true || !m.Events[1].At.Equal(base.Add(300*time.Millisecond)) {
		t.Fatalf("unstamped event misplaced: %+v", m.Events)
	}
	if m.Nodes[0].Unstamped != 1 || m.Nodes[0].Events != 3 {
		t.Fatalf("skew diagnostics: %+v", m.Nodes[0])
	}
}

func TestMergeDeterministicByteIdentical(t *testing.T) {
	bundles := loadFailoverBundles(t)
	render := func(bs []*Bundle) []byte {
		var buf bytes.Buffer
		if err := Merge(bs).WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := render(bundles)
	if len(first) == 0 {
		t.Fatal("empty merge output")
	}
	// Repeated merges and reversed bundle order must be byte-identical.
	if again := render(bundles); !bytes.Equal(first, again) {
		t.Fatal("repeated merge differs")
	}
	reversed := []*Bundle{bundles[1], bundles[0]}
	if swapped := render(reversed); !bytes.Equal(first, swapped) {
		t.Fatal("merge depends on bundle argument order")
	}
}

// TestMergeTieBreaksByNodeThenSeq: events whose HLC stamps are equal in
// both wall and logical parts merge in node order, and one node's events in
// sequence order, whatever order the bundles are given in. Every stamp here
// is shared by two events of each of three nodes.
func TestMergeTieBreaksByNodeThenSeq(t *testing.T) {
	dir := t.TempDir()
	const walls = 8
	for _, node := range []string{"c", "a", "b"} {
		var evs []obs.Event
		for i := 0; i < 2*walls; i++ {
			evs = append(evs, obs.Event{At: base, HLC: hlcAt(time.Duration(i/2) * time.Millisecond),
				Source: obs.SourceGCS, Kind: obs.KindHeartbeatMiss, Node: node})
		}
		writeBundle(t, dir, node, evs, nil)
	}
	bundles, err := LoadBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for _, order := range [][]int{{2, 0, 1}, {1, 2, 0}, {0, 1, 2}} {
		shuffled := []*Bundle{bundles[order[0]], bundles[order[1]], bundles[order[2]]}
		m := Merge(shuffled)
		if len(m.Events) != 3*2*walls {
			t.Fatalf("merged %d events, want %d", len(m.Events), 3*2*walls)
		}
		for i, ev := range m.Events {
			w, k := i/6, i%6 // the stamp, and the event's place among its six
			node, seq := string("abc"[k/2]), uint64(2*w+k%2+1)
			if ev.Node != node || ev.Seq != seq {
				t.Fatalf("order %v: event %d is %s seq %d, want %s seq %d", order, i, ev.Node, ev.Seq, node, seq)
			}
		}
		var buf bytes.Buffer
		if err := m.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("order %v: merge not byte-identical to the first order's", order)
		}
	}
}

func TestMergeDeduplicatesRepeatedDumpsOfOneNode(t *testing.T) {
	dir := t.TempDir()
	tr := obs.New(256, func() time.Time { return base })
	tr.Emit(obs.Event{At: base, HLC: hlcAt(0), Source: obs.SourceGCS, Kind: obs.KindHeartbeatMiss, Node: "a"})
	f := obs.NewFlightRecorder(obs.FlightConfig{
		Dir: dir, Node: "a", Tracer: tr, Now: func() time.Time { return base },
	})
	if _, err := f.Dump("first"); err != nil {
		t.Fatal(err)
	}
	tr.Emit(obs.Event{At: base.Add(time.Second), HLC: hlcAt(time.Second),
		Source: obs.SourceGCS, Kind: obs.KindHeartbeatMiss, Node: "a"})
	if _, err := f.Dump("second"); err != nil {
		t.Fatal(err)
	}
	bundles, err := LoadBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("loaded %d bundles, want 2", len(bundles))
	}
	m := Merge(bundles)
	if len(m.Events) != 2 {
		t.Fatalf("dedup failed: %d events, want 2 (event 1 appears in both dumps)", len(m.Events))
	}
}

func TestMergeSkewDiagnosticsFromManifest(t *testing.T) {
	dir := t.TempDir()
	clk := obs.NewHLCClock(func() time.Time { return base }, "a")
	// A peer 3ms ahead: the clock records the skew, the dump manifests it.
	clk.Observe(obs.HLC{Wall: base.Add(3 * time.Millisecond).UnixNano()})
	writeBundle(t, dir, "a", []obs.Event{
		{Source: obs.SourceGCS, Kind: obs.KindHeartbeatMiss, Node: "a"},
	}, clk)
	bundles, err := LoadBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := Merge(bundles)
	if len(m.Nodes) != 1 || m.Nodes[0].MaxSkew != 3*time.Millisecond {
		t.Fatalf("skew diagnostics: %+v", m.Nodes)
	}
	if m.Nodes[0].LastHLC.IsZero() {
		t.Fatal("LastHLC not taken from manifest")
	}
}

func TestReconstructPhasesPartitionGap(t *testing.T) {
	bundles := loadFailoverBundles(t)
	m := Merge(bundles)
	gap := Gap{Target: "10.0.0.100", Start: base, End: base.Add(900 * time.Millisecond)}
	fos := m.Reconstruct([]Gap{gap})
	if len(fos) != 1 {
		t.Fatalf("reconstructed %d failovers, want 1", len(fos))
	}
	f := fos[0]
	want := obs.Breakdown{
		Detection:   200 * time.Millisecond, // gap start → a's gather-enter
		Membership:  300 * time.Millisecond, // → a's install
		StateSync:   300 * time.Millisecond, // → a's acquire
		ARPTakeover: 100 * time.Millisecond, // → gap end
	}
	if f.Phases != want {
		t.Fatalf("phases %+v, want %+v", f.Phases, want)
	}
	if f.Phases.Total() != f.Gap {
		t.Fatalf("phases sum %v != gap %v", f.Phases.Total(), f.Gap)
	}
	if f.Detector != "a" || f.Acquirer != "a" {
		t.Fatalf("detector=%q acquirer=%q, want a/a", f.Detector, f.Acquirer)
	}
}

func TestDetectGaps(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "a", []obs.Event{
		{At: base, HLC: hlcAt(0), Source: obs.SourceCore, Kind: obs.KindAcquire, Node: "a", Addr: "10.0.0.100"},
		{At: base.Add(time.Second), HLC: hlcAt(time.Second),
			Source: obs.SourceCore, Kind: obs.KindRelease, Node: "a", Addr: "10.0.0.100"},
	}, nil)
	writeBundle(t, dir, "b", []obs.Event{
		{At: base.Add(1500 * time.Millisecond), HLC: hlcAt(1500 * time.Millisecond),
			Source: obs.SourceCore, Kind: obs.KindAcquire, Node: "b", Addr: "10.0.0.100"},
	}, nil)
	bundles, err := LoadBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := Merge(bundles)
	gaps := m.DetectGaps(100 * time.Millisecond)
	if len(gaps) != 1 {
		t.Fatalf("detected %d gaps, want 1: %+v", len(gaps), gaps)
	}
	g := gaps[0]
	if g.Target != "10.0.0.100" || g.End.Sub(g.Start) != 500*time.Millisecond {
		t.Fatalf("gap: %+v", g)
	}
	// Below the floor: no gap.
	if got := m.DetectGaps(time.Second); len(got) != 0 {
		t.Fatalf("minGap filter failed: %+v", got)
	}
}

func TestLoadBundlesDirectAndScan(t *testing.T) {
	dir := t.TempDir()
	aEvs, _ := failoverEvents("10.0.0.100")
	bdir := writeBundle(t, dir, "a", aEvs, nil)

	// Direct bundle path and parent scan find the same bundle once, even when
	// both are given.
	bundles, err := LoadBundles(bdir, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 {
		t.Fatalf("loaded %d bundles, want 1 (dedup by path)", len(bundles))
	}
	if bundles[0].Manifest.Node != "a" || len(bundles[0].Events) != 3 {
		t.Fatalf("bundle contents: %+v", bundles[0].Manifest)
	}

	if _, err := LoadBundles(t.TempDir()); err == nil {
		t.Fatal("empty directory must error")
	}
}
