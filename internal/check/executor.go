package check

import (
	"fmt"
	"time"

	"wackamole"
	"wackamole/internal/faults"
	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// Executor applies schedule events to one simulated deployment: the only
// code that injects a fault, for Run and for the availability experiment's
// presets alike. It also keeps the ground truth the false-suspicion judge
// reads: the live fault programs and the jitter windows.
type Executor struct {
	sim     *sim.Sim
	seg     *netsim.Segment
	servers []*wackamole.Server
	// jitterMax is the delay an opJitter window applies: half the margin
	// between heartbeats and detection, so skew can push individual probes
	// past their deadline without making detection permanently impossible.
	jitterMax time.Duration

	bindings    []*faults.Binding // the live fault program per server
	jitterUntil []time.Time
}

// NewExecutor returns the executor for servers, numbered as a schedule
// numbers them, whose group communication runs on seg under cfg. A
// partition splits seg between the servers alone: no other host may sit on
// it (netsim.Segment.Partition panics on one left out).
func NewExecutor(s *sim.Sim, cfg gcs.Config, seg *netsim.Segment, servers []*wackamole.Server) *Executor {
	return &Executor{
		sim: s, seg: seg, servers: servers,
		jitterMax:   (cfg.FaultDetectTimeout - cfg.HeartbeatInterval) / 2,
		bindings:    make([]*faults.Binding, len(servers)),
		jitterUntil: make([]time.Time, len(servers)),
	}
}

// Play runs the simulation to each event's instant (base plus its offset)
// and applies it, up to end, runs on to end and stops every fault program
// still live. step, when set, is called at each event's instant and again
// once it is applied, with the count applied so far; Play stops the moment
// it reports true, without running on. It returns the count applied.
func (x *Executor) Play(events []Event, base, end time.Time, step func(applied int) bool) int {
	applied, halted := 0, false
	for _, ev := range events {
		at := base.Add(ev.At)
		if at.After(end) {
			break
		}
		x.sim.RunUntil(at)
		if halted = step != nil && step(applied); halted {
			break
		}
		x.apply(ev)
		applied++
		if halted = step != nil && step(applied); halted {
			break
		}
	}
	if !halted && x.sim.Now().Before(end) {
		x.sim.RunUntil(end)
	}
	for i, b := range x.bindings {
		if b != nil {
			b.Stop()
			x.bindings[i] = nil
		}
	}
	return applied
}

// apply executes one event. Inapplicable events (restoring an up interface,
// severing an already-detached session, joining a node in service) degrade
// to deterministic no-ops so shrunk schedules stay runnable.
func (x *Executor) apply(ev Event) {
	switch ev.Op {
	case opPartition:
		var sideA, sideB []*netsim.Host
		for i, s := range x.servers {
			if ev.Mask&(1<<uint(i)) != 0 {
				sideA = append(sideA, s.Host)
			} else {
				sideB = append(sideB, s.Host)
			}
		}
		if len(sideA) > 0 && len(sideB) > 0 {
			x.seg.Partition(sideA, sideB)
			return
		}
		x.seg.Heal()
		return
	case opHeal:
		x.seg.Heal()
		return
	}
	srv := x.servers[ev.Server]
	switch ev.Op {
	case opFail, opRestore:
		for _, nic := range srv.Host.NICs() {
			nic.SetUp(ev.Op == opRestore)
		}
	case opCrash:
		srv.Host.Crash()
	case opSever:
		if sess := srv.Node.Session(); sess != nil {
			sess.Sever()
		}
	case opLeave:
		if srv.Node.Connected() {
			// Error is impossible under the Connected guard; a failed
			// leave would surface as an oracle violation anyway.
			_ = srv.Node.LeaveService()
		}
	case opJoin:
		if !srv.Node.Connected() {
			_ = srv.Node.JoinService() // a stopped node refuses: the no-op
		}
	case opJitter:
		srv.Host.SetProcessingJitter(x.jitterMax)
		x.jitterUntil[ev.Server] = x.sim.Now().Add(jitterWindow)
		x.sim.After(jitterWindow, func() { srv.Host.SetProcessingJitter(0) })
	case opShape, opClear:
		if b := x.bindings[ev.Server]; b != nil {
			b.Stop()
		}
		x.bindings[ev.Server] = nil
		if ev.Op == opShape {
			// Run and Preset validate the program upfront: no error here.
			x.bindings[ev.Server], _ = faults.ApplyProgram(x.sim, srv.NIC, ev.Shape)
		}
	}
}

// grayPresets are the default fault programs of the gray presets.
var grayPresets = map[string]string{
	"flap":     "flap(period=800ms,duty=0.5,jitter=20ms)",
	"graylink": "graylink(rxloss=0.3,txloss=0.3,rxdelay=1ms,txdelay=1ms)",
	"slownode": "slownode(stall=60ms)",
}

// Preset returns the named fault, one of wacksim's -fault kinds, as events
// offset from the fault instant against server target of a deployment of
// servers. shape overrides a gray preset's default program; hold is how long
// each step of a gray or rolling preset lasts.
//
//	nic, crash, graceful        fail, crash or leave target at 0
//	flap, graylink, slownode    shape target at 0, clear it at hold
//	rolling                     leave server i at 2i·hold and join it at
//	                            (2i+1)·hold, for every server in turn
func Preset(name string, target, servers int, shape string, hold time.Duration) ([]Event, error) {
	if op, ok := map[string]Op{"nic": opFail, "crash": opCrash, "graceful": opLeave}[name]; ok {
		return []Event{{Op: op, Server: target}}, nil
	}
	if def, ok := grayPresets[name]; ok {
		if shape == "" {
			shape = def
		}
		if _, err := faults.ParseProgram(shape); err != nil {
			return nil, err
		}
		return []Event{{Op: opShape, Server: target, Shape: shape}, {At: hold, Op: opClear, Server: target}}, nil
	}
	if name != "rolling" {
		return nil, fmt.Errorf("check: unknown fault %q (want nic, crash, graceful, flap, graylink, slownode or rolling)", name)
	}
	var events []Event
	for i := 0; i < servers; i++ {
		at := 2 * time.Duration(i) * hold
		events = append(events, Event{At: at, Op: opLeave, Server: i}, Event{At: at + hold, Op: opJoin, Server: i})
	}
	return events, nil
}
