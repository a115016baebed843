package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// tinyOps is a whole number of op-mix cycles of every workload (3 and 4).
var tinyOps = map[string]int{
	"failover_sweep":           3,
	"steady_traffic":           2,
	"loaded_failover_observed": 1,
	"membership_churn":         4,
}

// shrinkClients makes the two traffic workloads cheap enough for a unit
// test: same rigs, same trial, same planes, a twentieth of the clients.
func shrinkClients(t *testing.T) {
	lc, lr, sc, sr := loadedClients, loadedRPS, steadyClients, steadyRPS
	loadedClients, loadedRPS, steadyClients, steadyRPS = 50, 500, 100, 1000
	t.Cleanup(func() { loadedClients, loadedRPS, steadyClients, steadyRPS = lc, lr, sc, sr })
}

func runTiny(t *testing.T, name string, seed int64, passes int) *result {
	t.Helper()
	return runSized(t, params{workload: name, seed: seed, ops: tinyOps[name], passes: passes})
}

func runSized(t *testing.T, p params) *result {
	t.Helper()
	p.seconds, p.rigScale = 1, 1e-4
	name := p.workload
	res, err := runWorkload(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: %d failed ops: %v", name, res.Failed, res.Failures)
	}
	return res
}

// TestBenchmarkJSON pins BENCHMARK.json to spec.go and to the limits of the
// benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with: go run . -emit-benchmark-json > ../BENCHMARK.json")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range doc.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
}

// TestWorkloads runs every workload untraced at a tiny op count through
// the full protocol. The result line must carry exactly BENCHMARK.json's
// end-to-end names, none of them zero; a second run under the same seed
// must repeat every simulated value and a run under another seed must not.
func TestWorkloads(t *testing.T) {
	shrinkClients(t)
	for _, ws := range workloadSpecs {
		res := runTiny(t, ws.Name, 7, 2)
		for name := range res.Metrics {
			if _, ok := specOf(name); !ok {
				t.Errorf("%s emits %q, which spec.go does not list", ws.Name, name)
			}
		}
		for _, m := range endToEnd {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", ws.Name, m.Name)
			}
		}
		line, err := driverLine(res, false)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted != tinyOps[ws.Name] || out.Failed != 0 {
			t.Errorf("%s: result line says %+v", ws.Name, out)
		}
		if len(out.Metrics) != len(driverEndToEnd()) {
			t.Errorf("%s: %d metrics on the result line, want %d", ws.Name, len(out.Metrics), len(driverEndToEnd()))
		}
		for _, m := range driverEndToEnd() {
			if v, ok := out.Metrics[m.Name]; !ok || v.Value == 0 {
				t.Errorf("%s: gated metric %s = %v (present %v)", ws.Name, m.Name, v.Value, ok)
			}
		}

		again := runTiny(t, ws.Name, 7, 1)
		other := runTiny(t, ws.Name, 8, 1)
		differs := false
		for name, m := range res.Metrics {
			if !isSim(name) {
				continue
			}
			if got := again.Metrics[name].Value; got != m.Value {
				t.Errorf("%s: %s = %v then %v under one seed", ws.Name, name, m.Value, got)
			}
			if other.Metrics[name].Value != m.Value {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: a different seed changed no simulated value", ws.Name)
		}
	}
}

// TestTracedRun drives the traced protocol end to end on the cheapest
// workload: layer shares sum to one, the per-layer allocations sum to the
// profiled pass's Mallocs, and the driver line carries every per-layer
// name.
func TestTracedRun(t *testing.T) {
	// Full-size clients and 20 ops: the CPU profile needs a few samples.
	res := runSized(t, params{workload: "steady_traffic", seed: 7, ops: 20, trace: true, passes: 1})
	var cpu, allocs float64
	for _, l := range layers {
		cpu += res.Metrics[l+".cpu_share"].Value
		allocs += res.Metrics[l+".allocs_per_op"].Value
	}
	if cpu < 0.99 || cpu > 1.01 {
		t.Errorf("cpu shares sum to %v", cpu)
	}
	if want := res.Notes["mem_pass_allocs_per_op"]; allocs < 0.99*want || allocs > 1.01*want {
		t.Errorf("per-layer allocations sum to %v per op, the pass allocated %v", allocs, want)
	}
	if res.Metrics["flow.round_trip_ns"].Value <= 0 {
		t.Error("the flow rig did not report")
	}
	line, err := driverLine(res, true)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Metrics map[string]json.RawMessage }
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(perLayer()) {
		t.Errorf("%d metrics on the traced result line, want %d", len(out.Metrics), len(perLayer()))
	}
}

// TestRigsReport runs every isolated rig at a tiny iteration count and
// checks each names only spec metrics and reports positive times.
func TestRigsReport(t *testing.T) {
	m := metricSet{}
	for _, ws := range workloadSpecs {
		for _, r := range rigsFor(ws.Name) {
			r(m, 1e-4)
		}
	}
	for name, v := range m {
		if _, ok := specOf(name); !ok {
			t.Errorf("rig metric %q is not in spec.go", name)
		}
		if strings.HasSuffix(name, "_ns") || strings.Contains(name, "_us_") {
			if v <= 0 {
				t.Errorf("%s = %v", name, v)
			}
		}
	}
	for _, s := range perLayerBase {
		if _, ok := m[s.Name]; !ok && (strings.HasSuffix(s.Name, "_ns") || strings.Contains(s.Name, "_ns_") || strings.Contains(s.Name, "_us_")) {
			t.Errorf("no rig reports %s", s.Name)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(vs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vs[0] != 40 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 || median([]float64{7}) != 7 {
		t.Error("degenerate inputs")
	}
}

func TestMinOfPasses(t *testing.T) {
	got := minOfPasses([][]time.Duration{{5, 2, 9}, {4, 3, 9}, {6, 1, 8}})
	want := []time.Duration{4, 1, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("minOfPasses = %v, want %v", got, want)
		}
	}
	if minOfPasses(nil) != nil {
		t.Error("no passes should give no times")
	}
}

//go:noinline
func burnForProfile(d time.Duration) uint64 {
	var x uint64 = 1
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e6; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestPprofReader round-trips a profile written by runtime/pprof.
func TestPprofReader(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	burnForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sampleTypes) != 2 || p.sampleTypes[0] != "samples" || p.sampleTypes[1] != "cpu" {
		t.Fatalf("sample types %v", p.sampleTypes)
	}
	found := false
	for _, s := range p.samples {
		if len(s.values) != 2 {
			t.Fatalf("sample with %d values", len(s.values))
		}
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".burnForProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample of %d passes through burnForProfile", len(p.samples))
	}
	shares, err := cpuSharesByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The burner is this package's code: harness.
	if shares["experiment"] < 0.5 {
		t.Errorf("burner charged %v to the harness layer: %v", shares["experiment"], shares)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed")
	}
}

// TestEveryPackageHasALayer walks the repository: every package of the
// module must map to exactly one known layer, so a new package cannot
// silently fall into runtime_bg.
func TestEveryPackageHasALayer(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	root := ".."
	pkgs := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "bench") {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		hasCode := false
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				hasCode = true
			}
		}
		if !hasCode {
			return nil
		}
		pkg := modulePath
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		pkgs++
		if l := layerOfPackage(pkg); !known[l] {
			t.Errorf("package %s maps to layer %q; add it to packageLayer in layers.go", pkg, l)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pkgs < 30 {
		t.Errorf("walk found only %d packages", pkgs)
	}
	for pkg, l := range packageLayer {
		if !known[l] {
			t.Errorf("packageLayer[%s] = %q is not a layer", pkg, l)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "container/heap.Push", "wackamole/internal/sim.(*Sim).At", "wackamole/internal/netsim.(*Host).AfterFunc"}, "sim"},
		{[]string{"net/netip.AddrPort.String", "wackamole/internal/netsim.(*Host).OpenEndpoint.func1", "wackamole/internal/netsim.(*Host).deliverUDP"}, "env"},
		{[]string{"wackamole/internal/netsim.(*Endpoint).SendTo", "wackamole/internal/gcs.(*Daemon).sendTo"}, "env"},
		{[]string{"wackamole/internal/netsim.(*Segment).transmit"}, "netsim"},
		{[]string{"wackamole/internal/experiment/runner.Run.func1"}, "experiment"},
		{[]string{"wackamole.NewCluster", "main.(*churnWorkload).prepare"}, "experiment"},
		{[]string{"main.(*steadyWorkload).do", "main.runPass"}, "experiment"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime_bg"},
		{nil, "runtime_bg"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	ops, _ := specOf("ops_per_s")
	gap, _ := specOf("sim_interruption_s_p50")
	allocs, _ := specOf("allocs_per_op")
	cases := []struct {
		spec       metricSpec
		a, b       float64
		same       bool
		spread     float64
		wantResult string
	}{
		{ops, 100, 90, true, 0.02, "ok"},
		{ops, 100, 70, true, 0.02, "worse"},
		{ops, 100, 70, true, 0.30, "unresolved"},
		{ops, 100, 130, true, 0.02, "ok"},
		{gap, 2.2, 2.2, true, 0.5, "ok"},
		{gap, 2.2, 2.2000001, true, 0, "worse"},
		{gap, 2.2, 2.1999999, true, 0, "changed"},
		{gap, 2.2, 2.25, false, 0, "ok"},
		{allocs, 1000, 1100, true, 0.9, "worse"},
	}
	for _, c := range cases {
		if got := judge(c.spec, c.a, c.b, c.same, c.spread, 0); got != c.wantResult {
			t.Errorf("judge(%s, %v → %v) = %s, want %s", c.spec.Name, c.a, c.b, got, c.wantResult)
		}
	}
}
