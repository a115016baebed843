package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCensusListsWhatNoOtherPackageUses runs the census over a fixture
// repository: a root module and a nested bench module. Only names and
// fields that no other package's non-test code reaches may be listed.
func TestCensusListsWhatNoOtherPackageUses(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module wackamole\n\ngo 1.22\n",
		"internal/a/a.go": `package a

// Used is called from package b.
func Used() {}

// Internal is called only from this package.
func Internal() {}

func helper() WidgetConfig {
	Internal()
	return WidgetConfig{Unwritten: 2} // a write, but from inside the package
}

// TestOnly is called only from a test file.
func TestOnly() {}

// WidgetConfig has one field package b writes and one that only this
// package writes.
type WidgetConfig struct {
	Written   int
	Unwritten int
}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
`,
		"internal/b/b.go": `package b

import "wackamole/internal/a"

// B is called from the bench module.
func B() a.WidgetConfig {
	a.Used()
	return a.WidgetConfig{Written: 1}
}
`,
		"bench/go.mod": "module wackamole/bench\n\ngo 1.22\n\nrequire wackamole v0.0.0\n\nreplace wackamole => ../\n",
		"bench/main.go": `package main

import "wackamole/internal/b"

func main() { _ = b.B() }
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// t.Chdir needs Go 1.24; go.mod, and so CI, is at 1.22.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	var out, errOut bytes.Buffer
	if code := run([]string{"-v"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want := `exported internal/* names with no non-test caller outside their package: 2
exported Config/Options fields with no non-test writer outside their package: 1

names:
  a.Internal
  a.TestOnly

fields:
  a.WidgetConfig.Unwritten
`
	if got := out.String(); got != want {
		t.Fatalf("census -v printed\n%s\nwant\n%s", got, want)
	}
}

// keep lists every exported name and Config/Options field of this
// repository that the census counts and that stays exported on purpose,
// with the reason. A type stays exported when an exported field or
// signature of its own package names it.
var keep = map[string]string{
	"check.Op":                 "Event.Op names it",
	"check.OptionsDoc":         "Artifact.Options names it",
	"core.AddressOwner":        "Deps.IPs names it",
	"core.StateDetached":       "the root package's tests compare a node's state against it",
	"experiment.LatencyWindow": "AvailabilityResult.Before/During/After name it",
	"experiment.Point":         "Experiment.Points names it",
	"experiment.RollingPhase":  "AvailabilityResult.Phases names it",
	"experiment.Stat":          "Row.Stat names it",
	"flow.Server":              "NewServer returns it",
	"gcs.DeliveryHandler":      "Daemon.AddDeliveryHandler takes it",
	"gcs.DetectionHook":        "Daemon.SetDetectionHook takes it",
	"gcs.MembershipHandler":    "Daemon.SetMembershipHandler takes it",
	"invariant.Node":           "Monitor.Attach takes it",
	"netsim.Host.Restart":      "crash-restart under the same identity will call it",
	"netsim.UDPHandler":        "Host.BindUDP takes it",

	"flow.ServerConfig.Handler":              "the payload-echo tests substitute it",
	"netsim.SegmentConfig.LossRate":          "the knob for duplicated, reordered and corrupt datagrams will extend it",
	"obs.FlightConfig.Now":                   "the tests' clock",
	"router.Options.ShareARP":                "the §5.2 wiring between the router and arpshare",
	"wackamole.ClusterOptions.ConfigureNode": "the only per-server config in simulation, the counterpart of the prefer directive",
}

// TestRepositoryMatchesKeepList runs the census over this repository. A
// counted name missing from keep is surface nothing uses: unexport it,
// delete it, or give it a reason. An entry the census no longer counts has
// gained a user or gone: drop it.
func TestRepositoryMatchesKeepList(t *testing.T) {
	names, fields, err := count(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	counted := map[string]bool{}
	for _, n := range append(names, fields...) {
		counted[n] = true
		if keep[n] == "" {
			t.Errorf("%s: exported, but no other package's non-test code uses it; unexport it or keep it with a reason", n)
		}
	}
	for n := range keep {
		if !counted[n] {
			t.Errorf("%s: on the keep-list, but the census no longer counts it; drop the entry", n)
		}
	}
}
