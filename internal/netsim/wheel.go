package netsim

import "time"

// TimerWheel is a deterministic timing wheel for high-volume, coarse
// timeouts — per-connection retransmission timers, chiefly. A busy workload
// arms and cancels one timer per in-flight request; scheduling each of
// those individually on the simulator's heap would allocate a Timer and an
// event per request and bloat the event queue. The wheel instead keeps one
// simulator event per tick while it has work, and pools its per-timeout
// entries, so steady-state arm/cancel cycles allocate nothing.
//
// Deadlines are rounded UP to the next tick boundary (tick coalescing): a
// timeout never fires early, and fires at most one tick late. Within a
// tick, timers fire in arming order, preserving determinism.
//
// The wheel is bound to a host: ticks stop firing callbacks while the host
// is down (the pending entries are discarded, matching how a crashed
// machine loses its soft state).
type TimerWheel struct {
	host  *Host
	tick  time.Duration
	slots [][]*WheelTimer
	free  []*WheelTimer
	// spare is the sweep's scratch slice: Run swaps it in for the slot
	// being swept so that callbacks which Schedule mid-sweep append to a
	// live slice instead of one about to be overwritten. The old backing
	// array becomes the next spare, so capacity circulates instead of
	// being reallocated each sweep.
	spare []*WheelTimer

	armed   bool
	active  int   // entries currently residing in slots (including stopped ones not yet swept)
	curTick int64 // absolute tick index the next Run will sweep
}

// WheelTimer is one scheduled timeout. Handles are pooled: a handle is
// valid only until its callback fires or Stop is called, after which it
// must not be touched — the wheel will reuse it for a later Schedule.
type WheelTimer struct {
	fn       func()
	deadline int64 // absolute tick index
	stopped  bool
}

// Stop cancels the timeout. It must only be called on a handle whose
// callback has not yet fired (callers clear their reference when the
// callback runs, which makes the discipline local and mechanical).
func (t *WheelTimer) Stop() {
	if !t.stopped {
		t.stopped = true
	}
}

// NewTimerWheel creates a wheel on h with the given tick and slot count.
// The slot count bounds nothing semantically — timers farther out than one
// revolution simply survive extra sweeps — but should comfortably exceed
// the common timeout divided by tick so most entries are examined once.
func NewTimerWheel(h *Host, tick time.Duration, slots int) *TimerWheel {
	if tick <= 0 {
		panic("netsim: timer wheel tick must be positive")
	}
	if slots < 2 {
		slots = 2
	}
	return &TimerWheel{host: h, tick: tick, slots: make([][]*WheelTimer, slots)}
}

// tickOf converts an instant, as virtual time elapsed since the simulation
// began, to a tick index, rounding up so deadlines never fire early.
func (w *TimerWheel) tickOf(at time.Duration) int64 {
	n := int64(at / w.tick)
	if at%w.tick != 0 {
		n++
	}
	return n
}

// Schedule arms fn to fire no earlier than d from now (rounded up to the
// wheel's tick). The returned handle may be Stopped until the callback
// fires; after firing it is invalid.
func (w *TimerWheel) Schedule(d time.Duration, fn func()) *WheelTimer {
	if fn == nil {
		panic("netsim: Schedule called with nil callback")
	}
	now := w.host.net.sim.Elapsed()
	deadline := w.tickOf(time.Duration(addSat(int64(now), int64(d))))
	if !w.armed {
		// Align the next sweep to the first tick boundary strictly after
		// now, then keep ticking from there.
		w.curTick = w.tickOf(now)
		if time.Duration(w.curTick)*w.tick <= now {
			w.curTick++
		}
		w.armed = true
		w.host.net.sim.Post(time.Duration(w.curTick)*w.tick-now, w)
	}
	if deadline < w.curTick {
		deadline = w.curTick
	}
	var t *WheelTimer
	if l := len(w.free); l > 0 {
		t = w.free[l-1]
		w.free[l-1] = nil
		w.free = w.free[:l-1]
	} else {
		t = &WheelTimer{}
	}
	t.fn = fn
	t.deadline = deadline
	t.stopped = false
	slot := int(deadline % int64(len(w.slots)))
	w.slots[slot] = append(w.slots[slot], t)
	w.active++
	return t
}

// Active reports how many scheduled timeouts are currently pending.
func (w *TimerWheel) Active() int { return w.active }

// Run sweeps the current slot, firing due entries, and re-arms the wheel
// for the next tick while any entry remains. It is the sim.Runnable hook;
// callers never invoke it directly.
func (w *TimerWheel) Run() {
	slot := int(w.curTick % int64(len(w.slots)))
	entries := w.slots[slot]
	// Swap in the scratch slice before firing anything: callbacks may
	// Schedule new timers into this very slot, and those must land in the
	// slice that survives the sweep.
	w.slots[slot] = w.spare[:0]
	for _, t := range entries {
		switch {
		case t.stopped:
			w.active--
			w.recycle(t)
		case t.deadline > w.curTick:
			// Later revolution; carry over.
			w.slots[slot] = append(w.slots[slot], t)
		case !w.host.alive:
			// A dead host's soft timers die with it.
			w.active--
			w.recycle(t)
		default:
			fn := t.fn
			w.active--
			w.recycle(t)
			fn()
		}
	}
	for i := range entries {
		entries[i] = nil
	}
	w.spare = entries[:0]
	w.curTick++
	if w.active > 0 {
		w.host.net.sim.Post(w.tick, w)
	} else {
		w.armed = false
	}
}

func (w *TimerWheel) recycle(t *WheelTimer) {
	t.fn = nil
	t.stopped = false
	w.free = append(w.free, t)
}
