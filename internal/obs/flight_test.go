package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wackamole/internal/metrics"
)

func newTestRecorder(t *testing.T, tr *Tracer, cfg FlightConfig) *FlightRecorder {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Node == "" {
		cfg.Node = "127.0.0.1:4803"
	}
	cfg.Tracer = tr
	return NewFlightRecorder(cfg)
}

func TestFlightDumpBundleContents(t *testing.T) {
	tr := New(64, nil)
	clk := NewHLCClock(nil, "127.0.0.1:4803")
	tr.SetHLC(clk)
	tr.Emit(Event{Source: SourceGCS, Kind: KindGatherEnter, Node: "127.0.0.1:4803", Detail: "boot"})
	tr.Emit(Event{Source: SourceGCS, Kind: KindInstall, Node: "127.0.0.1:4803"})

	reg := metrics.New()
	c := reg.Counter("test_total", "test counter")
	for i := 0; i < 7; i++ {
		c.Inc()
	}
	reg.CounterFunc("viewed_total", "count kept elsewhere", func() uint64 { return 3 })
	f := newTestRecorder(t, tr, FlightConfig{
		Registry: reg,
		Config:   "bind 127.0.0.1:4803\n",
	})
	f.RecordView("127.0.0.1:4803/1", []string{"a", "b"})

	dir, err := f.Dump("test")
	if err != nil {
		t.Fatal(err)
	}

	var man FlightManifest
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if man.Node != "127.0.0.1:4803" || man.Seq != 1 || man.Reason != "test" {
		t.Fatalf("manifest: %+v", man)
	}
	if man.Events != 2 || man.Views != 1 {
		t.Fatalf("manifest counts: %+v", man)
	}
	if man.HLCWall == 0 {
		t.Fatal("manifest missing HLC state")
	}
	for _, file := range []string{BundleTrace, bundleMetrics, bundleViews, bundleConfig} {
		if _, err := os.Stat(filepath.Join(dir, file)); err != nil {
			t.Fatalf("bundle missing %s: %v", file, err)
		}
	}

	// Trace round-trips with HLC stamps intact.
	fh, err := os.Open(filepath.Join(dir, BundleTrace))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var evs []Event
	dec := json.NewDecoder(fh)
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if len(evs) != 2 || evs[0].Kind != KindGatherEnter || evs[0].HLC.IsZero() {
		t.Fatalf("trace contents: %+v", evs)
	}

	// The metrics file is the registry: plain and func-backed series alike.
	mb, err := os.ReadFile(filepath.Join(dir, bundleMetrics))
	if err != nil {
		t.Fatal(err)
	}
	if s := string(mb); !contains(s, "viewed_total 3") || !contains(s, "test_total 7") {
		t.Fatalf("metrics.prom contents:\n%s", s)
	}

	// No temporary directories left behind.
	entries, err := os.ReadDir(filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(dir) {
			t.Fatalf("stray entry %s in bundle dir", e.Name())
		}
	}
}

// TestFlightConcurrentWritersAndDumps is the -race coverage the recorder
// needs: trace emission, view recording and dump triggers all racing.
func TestFlightConcurrentWritersAndDumps(t *testing.T) {
	tr := New(256, nil)
	tr.SetHLC(NewHLCClock(nil, "n1"))
	f := newTestRecorder(t, tr, FlightConfig{Node: "n1"})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Emit(Event{Source: SourceGCS, Kind: KindHeartbeatMiss, Node: "n1"})
				f.RecordView(fmt.Sprintf("ring-%d-%d", g, i), []string{"n1", "n2"})
			}
		}(g)
	}
	dumps := make([]string, 3)
	for d := 0; d < 3; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			dir, err := f.Dump(fmt.Sprintf("concurrent-%d", d))
			if err != nil {
				t.Errorf("dump %d: %v", d, err)
				return
			}
			dumps[d] = dir
		}(d)
	}
	wg.Wait()

	seen := map[string]bool{}
	for _, dir := range dumps {
		if dir == "" || seen[dir] {
			t.Fatalf("dumps not distinct: %v", dumps)
		}
		seen[dir] = true
		if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
			t.Fatalf("bundle %s incomplete: %v", dir, err)
		}
	}
	if got := len(f.views); got != maxViews {
		t.Fatalf("view history not bounded: %d entries, want %d", got, maxViews)
	}
}

func TestFlightPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	f := newTestRecorder(t, nil, FlightConfig{Dir: dir, Node: "n1"})
	for i := 0; i < maxBundles+3; i++ {
		if _, err := f.Dump("prune-test"); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != maxBundles || names[0] != "n1-0004" || names[maxBundles-1] != fmt.Sprintf("n1-%04d", maxBundles+3) {
		t.Fatalf("prune kept %v, want the newest %d", names, maxBundles)
	}
}

func TestFlightInterruptionTrigger(t *testing.T) {
	base := time.Unix(100, 0)
	now := base
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	tr := New(64, clock)
	dir := t.TempDir()
	f := newTestRecorder(t, tr, FlightConfig{
		Dir: dir, Node: "n1",
		InterruptionThreshold: time.Second,
		Now:                   clock,
	})

	// Fast reconfiguration: no dump.
	tr.Emit(Event{Source: SourceGCS, Kind: KindGatherEnter, Node: "n1"})
	mu.Lock()
	now = base.Add(100 * time.Millisecond)
	mu.Unlock()
	f.RecordView("r1", []string{"n1"})

	// Slow reconfiguration: dump fires.
	tr.Emit(Event{Source: SourceGCS, Kind: KindGatherEnter, Node: "n1"})
	mu.Lock()
	now = base.Add(5 * time.Second)
	mu.Unlock()
	f.RecordView("r2", []string{"n1"})

	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, _ := os.ReadDir(dir)
		if len(entries) == 1 {
			var man FlightManifest
			b, err := os.ReadFile(filepath.Join(dir, entries[0].Name(), ManifestName))
			if err == nil {
				if json.Unmarshal(b, &man) != nil || !contains(man.Reason, "interruption") {
					t.Fatalf("unexpected manifest: %+v", man)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("interruption trigger never dumped")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlightRestartSkipsExistingBundles pins the restart story: a new
// recorder's sequence starts at 1, but bundles a previous incarnation left
// on disk must not be overwritten or collide.
func TestFlightRestartSkipsExistingBundles(t *testing.T) {
	dir := t.TempDir()
	first := newTestRecorder(t, nil, FlightConfig{Dir: dir, Node: "n1"})
	for i := 0; i < 2; i++ {
		if _, err := first.Dump("before-restart"); err != nil {
			t.Fatal(err)
		}
	}
	second := newTestRecorder(t, nil, FlightConfig{Dir: dir, Node: "n1"})
	bdir, err := second.Dump("after-restart")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(bdir) != "n1-0003" {
		t.Fatalf("restarted recorder dumped %s, want n1-0003", filepath.Base(bdir))
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.RecordView("r", nil)
	if dir, err := f.Dump("x"); dir != "" || err != nil {
		t.Fatalf("nil recorder Dump = %q, %v", dir, err)
	}
}
