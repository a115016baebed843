// Command bench is the repo's benchmark: four simulator workloads, each a
// fixed seed-derived list of operations, measured from outside the program
// through its exported functions only. See README.md for the metric and
// workload tables.
//
//	go run . -workload failover_sweep            one workload, untraced
//	go run . -workload all -json out.json        all four, one process each
//	go run . -workload steady_traffic -trace 1   per-layer map of one workload
//	go run . -compare a.json b.json              judge two result files
//
// The last line of a single-workload run is the driver's result object:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// fingerprint ties every number to the machine and inputs it came from.
type fingerprint struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"git_commit"`
	Loadavg    float64 `json:"loadavg_start"`
}

// resultFile is the -json document.
type resultFile struct {
	Header    fingerprint `json:"header"`
	Workloads []*result   `json:"workloads"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "base seed every input is derived from")
		secs         = flag.Int("seconds", runSeconds, "host-time budget of the timed passes; sizes the op list")
		trace        = flag.Int("trace", 0, "1: also run the profiled passes and isolated rigs and report the per-layer metrics")
		jsonOut      = flag.String("json", "", "write the full result document to this file")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
		emit         = flag.Bool("emit-benchmark-json", false, "print BENCHMARK.json as generated from spec.go")
	)
	flag.Parse()

	switch {
	case *emit:
		os.Stdout.Write(benchmarkJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace wants 0 or 1")
	}
	if *secs < 1 {
		fatalf("-seconds wants a positive number")
	}

	// The simulator is one goroutine; a second CPU only serves the
	// collector. Pin it so a bigger machine measures the same program.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	p := params{workload: *workloadName, seed: *seed, seconds: *secs, trace: *trace == 1, rigScale: 1}
	head := fingerprint{
		GoVersion: runtime.Version(), GOMAXPROCS: procs, NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		Seed: p.seed, Seconds: p.seconds, Trace: p.trace, Commit: gitCommit(), Loadavg: readLoadavg(),
	}

	if p.workload == "all" {
		os.Exit(runAll(p, head, *jsonOut))
	}
	printHeader(head)
	res, err := runWorkload(p)
	if err != nil {
		fatalf("%s: %v", p.workload, err)
	}
	printResult(res)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, resultFile{Header: head, Workloads: []*result{res}}); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := driverLine(res, p.trace)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(line)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll re-executes this binary once per workload, sequentially, so every
// workload gets a fresh heap and its own peak RSS.
func runAll(p params, head fingerprint, jsonOut string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp("", "wackbench")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)
	doc := resultFile{Header: head}
	code := 0
	for _, ws := range workloadSpecs {
		part := filepath.Join(dir, ws.Name+".json")
		trace := "0"
		if p.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", ws.Name, "-seed", fmt.Sprint(p.seed),
			"-seconds", fmt.Sprint(p.seconds), "-trace", trace, "-json", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			code = 1
			if _, ok := err.(*exec.ExitError); !ok {
				fatalf("%s: %v", ws.Name, err)
			}
		}
		b, err := os.ReadFile(part)
		if err != nil {
			fatalf("%s left no result: %v", ws.Name, err)
		}
		var one resultFile
		if err := json.Unmarshal(b, &one); err != nil {
			fatalf("%s: %v", part, err)
		}
		doc.Workloads = append(doc.Workloads, one.Workloads...)
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, doc); err != nil {
			fatalf("%v", err)
		}
	}
	return code
}

func writeJSON(path string, doc resultFile) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printHeader(h fingerprint) {
	fmt.Printf("# go %s GOMAXPROCS=%d nproc=%d cpu=%q\n", h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel)
	fmt.Printf("# seed=%d seconds=%d trace=%v commit=%s loadavg_start=%.2f\n", h.Seed, h.Seconds, h.Trace, h.Commit, h.Loadavg)
}

// printResult writes one `workload metric value unit` line per metric, in
// spec order, after the pass walls and notes.
func printResult(r *result) {
	fmt.Printf("# %s ops=%d failed=%d pass_wall_s=%.3f\n", r.Workload, r.Ops, r.Failed, r.PassWalls)
	for _, k := range sortedKeys(r.Notes) {
		fmt.Printf("# %s %s=%g\n", r.Workload, k, r.Notes[k])
	}
	for _, f := range r.Failures {
		fmt.Printf("# %s FAILED %s\n", r.Workload, f)
	}
	for _, spec := range allMetrics() {
		if m, ok := r.Metrics[spec.Name]; ok {
			fmt.Printf("%s %s %s %s\n", r.Workload, spec.Name, formatValue(m.Value), m.Unit)
		}
	}
}

// formatValue prints a measured number with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// driverLine renders the result object the benchmark driver reads: every
// end-to-end metric of BENCHMARK.json untraced, every per-layer metric
// traced. A per-layer metric that does not exist on this workload (a rig
// that reports under another workload, a counter an opaque trial function
// does not return) reads 0.
func driverLine(r *result, trace bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Ops, Failed: r.Failed, Metrics: map[string]value{}}
	specs := driverEndToEnd()
	if trace {
		specs = perLayer()
	}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok && !trace {
			return "", fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, s.Name)
		}
		out.Metrics[s.Name] = value{m.Value, s.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gitCommit names the commit under test; the driver's checkout is not a
// git repository, so "unknown" is a normal answer.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
