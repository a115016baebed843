package main

import "strings"

// layers.go maps a stack frame to the layer (module) it is charged to.

const modulePath = "wackamole"

// packageLayer assigns every package of the module to exactly one layer.
// bench_test.go walks the repository and fails when a package is missing
// here, so a new package cannot silently fall into runtime_bg. Packages the
// workloads never run are filed under the layer they extend.
var packageLayer = map[string]string{
	"wackamole":                            "experiment", // Cluster and Node wiring
	"wackamole/bench":                      "experiment", // this package under go test; "main" when built
	"wackamole/internal/experiment":        "experiment",
	"wackamole/internal/experiment/runner": "experiment",
	"wackamole/internal/sim":               "sim",
	"wackamole/internal/netsim":            "netsim", // except Endpoint, see layerOfFunc
	"wackamole/internal/faults":            "netsim",
	"wackamole/internal/env":               "env",
	"wackamole/internal/env/realtime":      "env",
	"wackamole/internal/wire":              "wire",
	"wackamole/internal/gcs":               "gcs",
	"wackamole/internal/core":              "core",
	"wackamole/internal/placement":         "placement",
	"wackamole/internal/ipmgr":             "ipmgr",
	"wackamole/internal/arp":               "arp",
	"wackamole/internal/arpshare":          "arp",
	"wackamole/internal/flow":              "flow",
	"wackamole/internal/load":              "load",
	"wackamole/internal/probe":             "probe",
	"wackamole/internal/invariant":         "invariant",
	"wackamole/internal/check":             "invariant",
	"wackamole/internal/obs":               "obs",
	"wackamole/internal/forensics":         "obs",
	"wackamole/internal/metrics":           "metrics",
	"wackamole/internal/health":            "health",
	"wackamole/internal/watchdog":          "health",
	"wackamole/internal/config":            "experiment",
	"wackamole/internal/ctl":               "experiment",
	"wackamole/internal/fake":              "experiment",
	"wackamole/internal/hsrp":              "experiment",
	"wackamole/internal/vrrp":              "experiment",
	"wackamole/internal/rip":               "experiment",
	"wackamole/internal/router":            "experiment",
}

// layerOfPackage returns the layer of an import path, or "" for a package
// outside the module. Commands and examples are harness code.
func layerOfPackage(pkg string) string {
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, modulePath+"/cmd/") || strings.HasPrefix(pkg, modulePath+"/examples/") {
		return "experiment"
	}
	return ""
}

// packageOfFunc extracts the import path from a symbol name such as
// "wackamole/internal/gcs.(*Daemon).onToken".
func packageOfFunc(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfFunc returns the layer a function belongs to, or "" when it is not
// the module's code. The bench's own functions (package main) drive the
// ops, so they count as harness. netsim's Endpoint is the adapter between
// the simulated host and env.PacketConn: its methods and the delivery
// closure OpenEndpoint installs are the env layer's cost.
func layerOfFunc(fn string) string {
	pkg := packageOfFunc(fn)
	if pkg == "main" {
		return "experiment"
	}
	l := layerOfPackage(pkg)
	if l == "netsim" && strings.Contains(fn[len(pkg):], "Endpoint") {
		return "env"
	}
	return l
}

// layerOfStack charges a stack (leaf first) to the layer of its leaf-most
// frame that belongs to the module, so container/heap, mallocgc or netip
// formatting are paid by whoever called them. A stack with no such frame —
// background GC, the scheduler — is runtime_bg.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	return "runtime_bg"
}
