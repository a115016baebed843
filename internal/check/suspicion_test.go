package check

import (
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/gcs"
)

// TestFalseSuspicionJudge drives the false-suspicion judge over the ground
// truth each exemption reads. Server 0 declares server 1 failed after the
// case's events; the declaration is false only when 1 is alive, both
// interfaces are up, both sit in one partition component, and neither runs
// a flap program or sits inside a jitter window.
func TestFalseSuspicionJudge(t *testing.T) {
	const flap = "flap(period=1s,duty=0.5,jitter=0)" // down 500ms, then up 500ms
	cases := []struct {
		name   string
		events []Event
		run    time.Duration // simulated time between the events and the judgement
		want   bool
	}{
		{name: "live reachable peer", want: true},
		{name: "peer flaps", events: []Event{{Op: opShape, Server: 1, Shape: flap}}, run: 600 * time.Millisecond},
		{name: "observer flaps", events: []Event{{Op: opShape, Server: 0, Shape: flap}}, run: 600 * time.Millisecond},
		{name: "peer's program has no flap", events: []Event{{Op: opShape, Server: 1, Shape: "graylink(rxloss=0.3)"}}, want: true},
		{name: "flap program cleared", events: []Event{{Op: opShape, Server: 1, Shape: flap}, {Op: opClear, Server: 1}}, want: true},
		{name: "peer inside a jitter window", events: []Event{{Op: opJitter, Server: 1}}},
		{name: "observer inside a jitter window", events: []Event{{Op: opJitter, Server: 0}}},
		{name: "jitter window closed", events: []Event{{Op: opJitter, Server: 1}}, run: jitterWindow, want: true},
		{name: "peer across a partition", events: []Event{{Op: opPartition, Mask: 0b001}}},
		{name: "partition leaves both on one side", events: []Event{{Op: opPartition, Mask: 0b100}}, want: true},
		{name: "partition healed", events: []Event{{Op: opPartition, Mask: 0b001}, {Op: opHeal}}, want: true},
		{name: "peer crashed", events: []Event{{Op: opCrash, Server: 1}}},
		{name: "peer's interface down", events: []Event{{Op: opFail, Server: 1}}},
		{name: "observer's interface down", events: []Event{{Op: opFail, Server: 0}}},
		{name: "peer's interface restored", events: []Event{{Op: opFail, Server: 1}, {Op: opRestore, Server: 1}}, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := gcs.TunedConfig()
			c, err := wackamole.NewCluster(wackamole.ClusterOptions{Seed: 3, Servers: 3, VIPs: 3, GCS: cfg})
			if err != nil {
				t.Fatal(err)
			}
			x := NewExecutor(c.Sim, cfg, c.Segment, c.Servers)
			for _, ev := range tc.events {
				x.apply(ev)
			}
			c.RunFor(tc.run)
			if tc.run > 0 && tc.events[0].Op == opShape {
				// A flap exempts on its own only while it has the
				// interface up; down, the interface check exempts first.
				if srv := c.Servers[tc.events[0].Server]; !srv.NIC.Up() {
					t.Fatalf("setup: server %d's interface is down at the judgement", tc.events[0].Server)
				}
			}
			if got := x.falseSuspicion(0, 1); got != tc.want {
				t.Fatalf("falseSuspicion(0, 1) = %v, want %v", got, tc.want)
			}
		})
	}
}
