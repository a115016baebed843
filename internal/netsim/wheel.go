package netsim

import (
	"time"

	"wackamole/internal/sim"
)

// TimerWheel is a deterministic timing wheel for high-volume, coarse
// timeouts — per-connection retransmission timers, chiefly. A busy workload
// arms and cancels one timer per in-flight request; scheduling each of
// those individually on the simulator's heap would bloat the event queue.
// The wheel instead keeps one simulator event per tick while it has work,
// and a timeout is a record its owner embeds and re-arms (WheelTimer), so
// arming, cancelling and firing allocate nothing and cost a few pointer
// writes each.
//
// Deadlines are rounded UP to the next tick boundary (tick coalescing): a
// timeout never fires early, and fires at most one tick late. Within a
// tick, timers fire in arming order, preserving determinism.
//
// The wheel is bound to a host: ticks stop firing callbacks while the host
// is down (the timeouts that come due are dropped unfired, matching how a
// crashed machine loses its soft state).
type TimerWheel struct {
	host *Host
	tick time.Duration
	// slots holds one list head per slot: a timeout due at tick k is on the
	// circular list of slot k % len(slots), in arming order.
	slots []WheelTimer
	// next is the sweep's place in the slot it is walking. Stop moves it
	// along, so a callback may stop or re-arm any timeout of the wheel, the
	// one the sweep would visit next included.
	next *WheelTimer

	armed   bool  // a tick is on the simulator's queue, or running
	active  int   // armed timeouts
	curTick int64 // absolute tick index of the next sweep to begin
}

// WheelTimer is one timeout: the record on its slot's list is itself the
// handle, embedded in the struct that carries the callback's context and
// armed any number of times with Reset. The zero value is never armed and
// may be Stopped; Init makes it usable.
type WheelTimer struct {
	next, prev *WheelTimer // nil while not armed
	w          *TimerWheel
	run        sim.Runnable
	deadline   int64 // absolute tick index
}

// NewTimerWheel creates a wheel on h with the given tick and slot count.
// The slot count bounds nothing semantically — timers farther out than one
// revolution simply survive extra sweeps — but should comfortably exceed
// the common timeout divided by tick so most entries are examined once.
func NewTimerWheel(h *Host, tick time.Duration, slots int) *TimerWheel {
	if tick <= 0 {
		panic("netsim: timer wheel tick must be positive")
	}
	w := &TimerWheel{host: h, tick: tick, slots: make([]WheelTimer, max(slots, 2))}
	for i := range w.slots {
		head := &w.slots[i]
		head.next, head.prev = head, head
	}
	return w
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

// Init makes t, which must not be armed, a timeout of w that runs r each
// time it fires.
func (w *TimerWheel) Init(t *WheelTimer, r sim.Runnable) { *t = WheelTimer{w: w, run: r} }

// Schedule arms fn to fire once, no earlier than d from now: Init and Reset
// over a fresh record, for callers with no struct to embed one in.
func (w *TimerWheel) Schedule(d time.Duration, fn func()) *WheelTimer {
	if fn == nil {
		panic("netsim: Schedule called with nil callback")
	}
	t := new(WheelTimer)
	w.Init(t, runFunc(fn))
	t.Reset(d)
	return t
}

type runFunc func()

func (f runFunc) Run() { f() }

// Reset arms t to fire no earlier than d from now (rounded up to the wheel's
// tick), dropping any deadline it was armed with, and puts it behind every
// timeout already armed for the same tick.
func (t *WheelTimer) Reset(d time.Duration) {
	w := t.w
	t.Stop()
	now := w.host.net.sim.Elapsed()
	if !w.armed {
		// Sweep next at the first tick boundary strictly after now, then
		// keep ticking from there: the grid is absolute, whenever the wheel
		// wakes up.
		w.curTick = int64(now/w.tick) + 1
		w.armed = true
		w.host.net.sim.Post(time.Duration(w.curTick)*w.tick-now, w)
	}
	// Not before the next sweep to begin — from a callback that is the tick
	// after the one being swept, so a zero delay is one tick, not the
	// revolution its own slot would keep it.
	t.deadline = max(w.tickOf(time.Duration(addSat(int64(now), int64(d)))), w.curTick)
	head := &w.slots[t.deadline%int64(len(w.slots))]
	t.prev, t.next = head.prev, head
	t.prev.next, head.prev = t, t
	w.active++
}

// Stop cancels the timeout, unlinking it at once, and reports whether the
// call prevented it from firing: false for a timeout that has fired, was
// dropped on a dead host, was stopped already or was never armed.
func (t *WheelTimer) Stop() bool {
	if t.next == nil {
		return false
	}
	if t.w.next == t {
		t.w.next = t.next
	}
	t.prev.next, t.next.prev = t.next, t.prev
	t.next, t.prev = nil, nil
	t.w.active--
	return true
}

// Active reports how many timeouts are armed.
func (w *TimerWheel) Active() int { return w.active }

// Run sweeps the current slot, firing due entries, and posts the next tick
// while any timeout remains armed. It is the sim.Runnable hook; callers
// never invoke it directly.
func (w *TimerWheel) Run() {
	tick := w.curTick
	w.curTick++
	head := &w.slots[tick%int64(len(w.slots))]
	// A timeout armed from a callback goes to the tail of its slot with a
	// later deadline, so should the walk reach it, it stays.
	for t := head.next; t != head; t = w.next {
		w.next = t.next
		if t.deadline > tick {
			continue // a later revolution
		}
		t.Stop()
		if w.host.alive { // a dead host's soft timers die with it
			t.run.Run()
		}
	}
	w.next = nil
	if w.active > 0 {
		w.host.net.sim.Post(w.tick, w)
	} else {
		w.armed = false
	}
}
