package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
)

// attrib.go turns the runtime's two sampled views — the CPU profile and the
// allocation profile — into one number per layer.

// cpuSharesByLayer returns each layer's share of the profile's CPU time.
func cpuSharesByLayer(profile []byte) (map[string]float64, error) {
	p, err := parseCPUProfile(profile)
	if err != nil {
		return nil, err
	}
	col := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile has no cpu column (%v)", p.sampleTypes)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if col >= len(s.values) {
			continue
		}
		v := float64(s.values[col])
		shares[layerOfStack(s.stack)] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("profile has no samples")
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// tinyAllocs keys, in allocsByLayer's result, the allocations the profile
// cannot see.
const tinyAllocs = "(tiny)"

// allocsByLayer runs loop with every allocation profiled and returns the
// number of objects each layer allocated during it.
//
// One kind of allocation never reaches the profile: a pointer-free object
// under 16 bytes that the runtime's tiny allocator packs into a block it
// already holds. The runtime counts those (and MemStats.Mallocs includes
// them) but records no stack. They are returned under tinyAllocs and also
// added to runtime_bg — samples without a wackamole frame — so the layers
// still sum to the pass's Mallocs.
func allocsByLayer(loop func()) map[string]float64 {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()

	// Both record buffers exist before the first reading, so that reading
	// the profile allocates nothing the second reading would then see.
	n, _ := runtime.MemProfile(nil, true)
	before := make([]runtime.MemProfileRecord, n+1024)
	after := make([]runtime.MemProfileRecord, 2*n+16384)
	tiny := []rtmetrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}

	before = readAllocProfile(before)
	rtmetrics.Read(tiny)
	tinyBefore := tiny[0].Value.Uint64()
	loop()
	rtmetrics.Read(tiny)
	tinyAfter := tiny[0].Value.Uint64()
	after = readAllocProfile(after)

	seen := make(map[[32]uintptr]int64, len(before))
	for _, r := range before {
		seen[r.Stack0] += r.AllocObjects
	}
	byStack := make(map[[32]uintptr]int64, len(after))
	for _, r := range after {
		byStack[r.Stack0] += r.AllocObjects
	}
	out := map[string]float64{}
	for stack, n := range byStack {
		if d := n - seen[stack]; d > 0 {
			out[layerOfPCs(stack)] += float64(d)
		}
	}
	out[tinyAllocs] = float64(tinyAfter - tinyBefore)
	out["runtime_bg"] += out[tinyAllocs]
	return out
}

// readAllocProfile fills recs with the allocation profile: objects
// allocated so far, by call stack. The profile is published at collection
// boundaries, hence the GC first.
func readAllocProfile(recs []runtime.MemProfileRecord) []runtime.MemProfileRecord {
	for {
		runtime.GC()
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:n]
		}
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
}

func layerOfPCs(stack [32]uintptr) string {
	n := 0
	for n < len(stack) && stack[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stack[:n])
	var names []string
	for {
		f, more := frames.Next()
		if f.Function != "" {
			names = append(names, f.Function)
		}
		if !more {
			break
		}
	}
	return layerOfStack(names)
}
