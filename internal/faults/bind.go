package faults

import (
	"time"

	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// Binding is a fault program armed on one interface. Stop disarms every
// shape and restores the clean-link state. Bindings are driven entirely by
// the simulation loop; ApplyProgram and Stop must run on that goroutine (or while
// the simulator is idle between RunFor calls).
type Binding struct {
	sim     *sim.Sim
	nic     *netsim.NIC
	shapes  []Shape
	stopped bool
	hasFlap bool
}

// apply validates and arms program on nic. Flap shapes take the interface
// down immediately (the first down phase starts at apply time); graylink
// and slownode shapes install their impairments synchronously. Shapes
// compose: flap+graylink gives a link that is impaired while up.
func apply(s *sim.Sim, nic *netsim.NIC, program []Shape) (*Binding, error) {
	for _, sh := range program {
		if err := sh.validate(); err != nil {
			return nil, err
		}
	}
	b := &Binding{sim: s, nic: nic, shapes: program}
	for _, sh := range program {
		switch sh.Kind {
		case grayLink:
			nic.SetTxImpairment(sh.TxLoss, sh.TxDelay)
			nic.SetRxImpairment(sh.RxLoss, sh.RxDelay)
		case slowNode:
			nic.Host().SetProcessingJitter(sh.Stall)
		case Flap:
			b.hasFlap = true
			up := time.Duration(float64(sh.Period) * sh.Duty)
			t := &flapTicker{
				b:      b,
				upDur:  up,
				down:   sh.Period - up,
				jitter: sh.Jitter,
				next:   false, // first transition takes the interface down
			}
			t.Run()
		}
	}
	return b, nil
}

// ApplyProgram parses spec and arms it on nic in one step.
func ApplyProgram(s *sim.Sim, nic *netsim.NIC, spec string) (*Binding, error) {
	shapes, err := ParseProgram(spec)
	if err != nil {
		return nil, err
	}
	return apply(s, nic, shapes)
}

// HasFlap reports whether the program contains a flap shape — detections of
// a flapping peer are genuine (the interface really was down), which is why
// false-suspicion oracles exclude flapped targets.
func (b *Binding) HasFlap() bool { return b.hasFlap }

// Stop disarms the program: in-flight flap ticks become no-ops, the
// interface comes back up (if a flap shape had it cycling), impairments
// clear, and the host's processing stall is removed. Stop is idempotent.
func (b *Binding) Stop() {
	if b.stopped {
		return
	}
	b.stopped = true
	for _, sh := range b.shapes {
		switch sh.Kind {
		case grayLink:
			b.nic.ClearImpairments()
		case slowNode:
			b.nic.Host().SetProcessingJitter(0)
		case Flap:
			b.nic.SetUp(true)
		}
	}
}

// flapTicker flips the interface and reschedules itself through the
// simulator's pooled Post path — one ticker allocation at apply, zero
// allocations per steady-state tick.
type flapTicker struct {
	b      *Binding
	upDur  time.Duration
	down   time.Duration
	jitter time.Duration
	// next is the interface state this tick applies; the phase that follows
	// is the duration that state holds.
	next bool
}

// Run applies the pending transition and schedules the opposite one. It
// satisfies sim.Runnable.
func (t *flapTicker) Run() {
	if t.b.stopped {
		return
	}
	t.b.nic.SetUp(t.next)
	phase := t.down
	if t.next {
		phase = t.upDur
	}
	t.next = !t.next
	if t.jitter > 0 {
		phase += time.Duration(t.b.sim.Rand().Int63n(int64(t.jitter)))
	}
	t.b.sim.Post(phase, t)
}
