package config

import (
	"os"
	"strings"
	"testing"
	"time"

	"wackamole/internal/gcs"
	"wackamole/internal/placement"
)

const sample = `
# example cluster configuration
bind 192.168.1.10:4803
peers 192.168.1.10:4803 192.168.1.11:4803 192.168.1.12:4803
group wack
control 127.0.0.1:4804
metrics 127.0.0.1:4805
timeouts tuned
balance 20s
mature 8s
prefer web1
device eth1
dry_run false
vip web1 10.0.0.100
vip web2 10.0.0.101
vip vrouter 198.51.100.1 10.1.0.1   # indivisible set
`

func TestParseSample(t *testing.T) {
	f, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.Bind != "192.168.1.10:4803" || len(f.Peers) != 3 || f.Group != "wack" {
		t.Fatalf("parsed %+v", f)
	}
	if f.Control != "127.0.0.1:4804" || f.Device != "eth1" || f.DryRun {
		t.Fatalf("parsed %+v", f)
	}
	if f.Metrics != "127.0.0.1:4805" {
		t.Fatalf("metrics directive not parsed: %+v", f)
	}
	if f.GCS.FaultDetectTimeout != time.Second {
		t.Fatalf("timeouts tuned not applied: %+v", f.GCS)
	}
	if f.BalanceTimeout != 20*time.Second || f.MatureTimeout != 8*time.Second {
		t.Fatalf("durations: %+v", f)
	}
	if len(f.Groups) != 3 || f.Groups[2].Name != "vrouter" || len(f.Groups[2].Addrs) != 2 {
		t.Fatalf("vip groups: %+v", f.Groups)
	}
	nc := f.NodeConfig()
	if nc.Group != "wack" || len(nc.Engine.Groups) != 3 || nc.Engine.Prefer[0] != "web1" {
		t.Fatalf("NodeConfig: %+v", nc)
	}
}

func TestTimeoutOverrides(t *testing.T) {
	// An explicit timeout wins over the profile whichever line comes first.
	for name, order := range map[string]string{
		"profile first": "timeouts default\nfault_detect 3s\nheartbeat 1s\ndiscovery 4s\n",
		"profile last":  "fault_detect 3s\nheartbeat 1s\ndiscovery 4s\ntimeouts default\n",
	} {
		f, err := parse(strings.NewReader("bind a:1\npeers a:1\n" + order + "vip v 10.0.0.1\n"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.GCS.FaultDetectTimeout != 3*time.Second || f.GCS.HeartbeatInterval != time.Second || f.GCS.DiscoveryTimeout != 4*time.Second {
			t.Fatalf("%s: overrides not applied: %+v", name, f.GCS)
		}
	}
	// The profile still supplies every timeout no line sets.
	f, err := parse(strings.NewReader("bind a:1\npeers a:1\nheartbeat 300ms\ntimeouts tuned\nvip v 10.0.0.1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (gcs.Config{FaultDetectTimeout: time.Second, HeartbeatInterval: 300 * time.Millisecond, DiscoveryTimeout: 1400 * time.Millisecond}); f.GCS != want {
		t.Fatalf("partial override: %+v, want %+v", f.GCS, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  string
	}{
		{"unknown directive", "bogus 1\n"},
		{"retired invariant_artifacts", "bind a:1\npeers a:1\ninvariant_artifacts /x\nvip v 10.0.0.1\n"},
		{"retired telemetry", "bind a:1\npeers a:1\ntelemetry 127.0.0.1:4810\nvip v 10.0.0.1\n"},
		{"retired telemetry_interval", "bind a:1\npeers a:1\ntelemetry_interval 250ms\nvip v 10.0.0.1\n"},
		{"missing bind", "peers a:1\nvip v 10.0.0.1\n"},
		{"missing peers", "bind a:1\nvip v 10.0.0.1\n"},
		{"missing vips", "bind a:1\npeers a:1\n"},
		{"self not in peers", "bind a:1\npeers b:1\nvip v 10.0.0.1\n"},
		{"bad vip addr", "bind a:1\npeers a:1\nvip v notanip\n"},
		{"dup vip group", "bind a:1\npeers a:1\nvip v 10.0.0.1\nvip v 10.0.0.2\n"},
		{"vip needs addr", "bind a:1\npeers a:1\nvip v\n"},
		{"bad timeouts", "bind a:1\npeers a:1\ntimeouts fast\nvip v 10.0.0.1\n"},
		{"bad duration", "bind a:1\npeers a:1\nbalance soon\nvip v 10.0.0.1\n"},
		{"bad bool", "bind a:1\npeers a:1\ndry_run maybe\nvip v 10.0.0.1\n"},
		{"invalid gcs", "bind a:1\npeers a:1\nheartbeat 10s\nvip v 10.0.0.1\n"},
		{"dup addr across groups", "bind a:1\npeers a:1\nvip v 10.0.0.1\nvip w 10.0.0.1\n"},
		{"unknown preference", "bind a:1\npeers a:1\nprefer nope\nvip v 10.0.0.1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parse(strings.NewReader(tc.cfg)); err == nil {
				t.Fatalf("accepted:\n%s", tc.cfg)
			}
		})
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	cfg := "\n\n# only comments\nbind a:1 # trailing\npeers a:1\nvip v 10.0.0.1\n"
	f, err := parse(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if f.Bind != "a:1" {
		t.Fatalf("Bind = %q", f.Bind)
	}
}

func TestRepresentativeDecisionsDirective(t *testing.T) {
	cfg := "bind a:1\npeers a:1\nrepresentative_decisions true\nvip v 10.0.0.1\n"
	f, err := parse(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !f.RepresentativeDecisions || !f.NodeConfig().Engine.RepresentativeDecisions {
		t.Fatal("representative_decisions not propagated")
	}
	if _, err := parse(strings.NewReader("bind a:1\npeers a:1\nrepresentative_decisions sure\nvip v 10.0.0.1\n")); err == nil {
		t.Fatal("bad boolean accepted")
	}
}

func TestPlacementDirective(t *testing.T) {
	cfg := "bind a:1\npeers a:1\nplacement minimal\nvip v 10.0.0.1\n"
	f, err := parse(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if f.Placement != placement.NameMinimal {
		t.Fatalf("placement: %q", f.Placement)
	}
	if got := f.NodeConfig().Engine.Placer.Name(); got != placement.NameMinimal {
		t.Fatalf("NodeConfig placer: %q", got)
	}
	// Default (no directive) is the paper's least-loaded rule.
	f, err = parse(strings.NewReader("bind a:1\npeers a:1\nvip v 10.0.0.1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.NodeConfig().Engine.Placer.Name(); got != placement.NameLeastLoaded {
		t.Fatalf("default placer: %q", got)
	}
	if _, err := parse(strings.NewReader("bind a:1\npeers a:1\nplacement random\nvip v 10.0.0.1\n")); err == nil {
		t.Fatal("unknown placement policy accepted")
	}
}

func TestDetectorDirective(t *testing.T) {
	// The timeouts profile never touches the detector, whichever line comes
	// first.
	for _, order := range []string{"timeouts tuned\ndetector phi\n", "detector phi\ntimeouts tuned\n"} {
		f, err := parse(strings.NewReader("bind a:1\npeers a:1\n" + order + "vip v 10.0.0.1\n"))
		if err != nil {
			t.Fatal(err)
		}
		if f.GCS.Detector != gcs.DetectorPhi || f.GCS.FaultDetectTimeout != time.Second {
			t.Fatalf("%q: detector phi with tuned timeouts not applied: %+v", order, f.GCS)
		}
	}
	f, err := parse(strings.NewReader("bind a:1\npeers a:1\ndetector fixed\nvip v 10.0.0.1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.GCS.Detector != gcs.DetectorFixed {
		t.Fatalf("detector fixed not applied: %+v", f.GCS)
	}
	if _, err := parse(strings.NewReader("bind a:1\npeers a:1\ndetector chi\nvip v 10.0.0.1\n")); err == nil {
		t.Fatal("unknown detector accepted")
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/wackamole.conf"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDefaultsWhenUnspecified(t *testing.T) {
	f, err := parse(strings.NewReader("bind a:1\npeers a:1\nvip v 10.0.0.1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.GCS.FaultDetectTimeout != 5*time.Second {
		t.Fatalf("default GCS config not applied: %+v", f.GCS)
	}
	if !f.DryRun {
		t.Fatal("dry_run should default to true")
	}
}

func TestExampleConfigParses(t *testing.T) {
	f, err := ParseFile("../../wackamole.conf.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Groups) != 4 || f.Control == "" || !f.DryRun {
		t.Fatalf("example config parsed oddly: %+v", f)
	}
	if f.GCS.FaultDetectTimeout != time.Second {
		t.Fatalf("example config not tuned: %+v", f.GCS)
	}
}

// FuzzParse feeds arbitrary files to parse, seeded with the example in the
// package documentation and wackamole.conf.example. parse must never panic,
// and a file it accepts must give a node configuration that both protocol
// layers accept.
func FuzzParse(f *testing.F) {
	src, err := os.ReadFile("config.go")
	if err != nil {
		f.Fatal(err)
	}
	var doc strings.Builder
	for _, line := range strings.Split(string(src), "\n") {
		if example, ok := strings.CutPrefix(line, "//\t"); ok {
			doc.WriteString(example + "\n")
		}
	}
	f.Add(doc.String())
	example, err := os.ReadFile("../../wackamole.conf.example")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(example))
	f.Add(sample)
	f.Fuzz(func(t *testing.T, in string) {
		file, err := parse(strings.NewReader(in))
		if err != nil {
			return
		}
		nc := file.NodeConfig()
		if err := nc.GCS.Validate(); err != nil {
			t.Fatalf("accepted file yields an invalid gcs.Config: %v\n%s", err, in)
		}
		if err := nc.Engine.Validate(); err != nil {
			t.Fatalf("accepted file yields an invalid core.Config: %v\n%s", err, in)
		}
	})
}
