// Package sim provides a deterministic discrete-event simulation engine.
//
// All protocol code in this repository is written against the abstract
// runtime in package env; under test and in the benchmark harness that
// runtime is backed by a Sim, which executes events in virtual time on a
// single goroutine. A seeded random source makes every run reproducible.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"wackamole/internal/env"
)

// Epoch is the instant at which every simulation starts. The concrete value
// is arbitrary; it only needs to be stable so that logs and traces from
// different runs line up.
var Epoch = time.Date(2003, time.June, 22, 0, 0, 0, 0, time.UTC)

// Sim is a discrete-event simulator. It is not safe for concurrent use; all
// interaction must happen from the goroutine driving Run/Step, which is also
// the goroutine on which scheduled callbacks execute.
type Sim struct {
	now   int64  // nanoseconds since Epoch
	queue []slot // min-heap on (at, seq): ties break FIFO, deterministically
	seq   uint64
	rng   *rand.Rand
	fired uint64
	// free recycles records scheduled with Post: nobody holds a handle to
	// those, so they cannot be referenced after firing. Pooling keeps the
	// per-frame scheduling cost of busy traffic simulations allocation-free
	// in steady state.
	free []*Timer
}

// New returns a simulator positioned at Epoch whose random source is seeded
// with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return Epoch.Add(time.Duration(s.now)) }

// Elapsed returns how much virtual time has passed since the simulation
// started.
func (s *Sim) Elapsed() time.Duration { return time.Duration(s.now) }

// Rand returns the simulator's seeded random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Fired reports how many events have executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending reports how many events are scheduled but not yet executed. A
// stopped timer leaves the queue at once, so it is not counted.
func (s *Sim) Pending() int { return len(s.queue) }

// Timer is a scheduled event: the record in the simulator's queue is itself
// the handle, and its owner may arm it any number of times with Reset.
type Timer struct {
	s      *Sim
	fn     func()
	run    Runnable // set instead of fn by Post and Init
	idx    int      // position in s.queue, -1 while not queued
	pooled bool     // scheduled by Post: no handle outstanding
}

// Stop cancels the timer, taking it off the queue. It reports whether the
// call prevented the event from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.s == nil || t.idx < 0 {
		return false
	}
	t.s.remove(t.idx)
	return true
}

// Reset arms the timer to fire d from the current virtual time, dropping any
// deadline it was armed with. Negative durations are treated as zero.
func (t *Timer) Reset(d time.Duration) { t.s.schedule(t, d) }

// Runnable is a pre-allocated scheduled callback. Implementations are
// typically pooled structs carrying their own context, which is what lets
// high-rate traffic paths schedule without allocating a closure per event.
type Runnable interface{ Run() }

// schedule is the one way onto the queue: After, Post and Reset all end
// here. Deadlines in the past are clamped to now, one too far out for the
// clock to reach saturates instead of wrapping, and events fire in (deadline,
// scheduling order); every call, including one that moves a record already
// queued, takes the next place in scheduling order.
func (s *Sim) schedule(t *Timer, d time.Duration) {
	at := s.now + int64(max(d, 0))
	if at < s.now {
		at = math.MaxInt64
	}
	e := slot{at: at, seq: s.seq, t: t}
	s.seq++
	if t.idx < 0 {
		s.queue = append(s.queue, e)
		s.up(len(s.queue)-1, e)
	} else {
		s.fix(t.idx, e)
	}
}

// newTimer returns an unarmed record running fn. It is the caller's handle
// and is never reused.
func (s *Sim) newTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: nil callback scheduled")
	}
	return &Timer{s: s, fn: fn, idx: -1}
}

// Init is newTimer for a record embedded in the struct that carries the
// callback's context: r runs at each firing, and arming allocates nothing.
func (s *Sim) Init(t *Timer, r Runnable) { *t = Timer{s: s, run: r, idx: -1} }

// After schedules fn to run d from the current virtual time. Negative
// durations are treated as zero.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	tm := s.newTimer(fn)
	tm.Reset(d)
	return tm
}

// Post schedules r to run d from the current virtual time. It returns no
// handle — the event cannot be cancelled — which is what lets the simulator
// draw the record from, and after it fires return it to, the free list.
func (s *Sim) Post(d time.Duration, r Runnable) {
	if r == nil {
		panic("sim: nil callback scheduled")
	}
	var t *Timer
	if n := len(s.free); n > 0 {
		t, s.free[n-1] = s.free[n-1], nil
		s.free = s.free[:n-1]
	} else {
		t = &Timer{s: s, idx: -1, pooled: true}
	}
	t.run = r // all a recycled record lacks: Step cleared it, remove left idx at -1
	t.Reset(d)
}

// NewTimer and AfterFunc make a bare simulator an env.Clock, for protocol
// code that is not tied to a simulated host.
func (s *Sim) NewTimer(fn func()) env.Timer { return s.newTimer(fn) }

// AfterFunc is After behind the env.Clock interface.
func (s *Sim) AfterFunc(d time.Duration, fn func()) env.Timer { return s.After(d, fn) }

var _ env.Clock = (*Sim)(nil)

// Step executes the next pending event, advancing virtual time to its
// deadline. It reports whether an event was executed.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	at, t := s.queue[0].at, s.queue[0].t
	s.remove(0)
	if at < s.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", Epoch.Add(time.Duration(at)), s.Now()))
	}
	s.now = at
	s.fired++
	fn, r := t.fn, t.run
	if t.pooled {
		// No handle outstanding: recycle the record before running so
		// nested Posts can reuse it immediately.
		t.run = nil
		s.free = append(s.free, t)
	}
	if r != nil {
		r.Run()
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with deadlines at or before t, then advances the
// clock to exactly t. Events scheduled beyond t remain pending.
func (s *Sim) RunUntil(t time.Time) {
	limit := int64(t.Sub(Epoch))
	for len(s.queue) > 0 && s.queue[0].at <= limit {
		s.Step()
	}
	s.now = max(s.now, limit)
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.Now().Add(d)) }

// slot is one heap entry. It carries its record's key, so a comparison reads
// two slots of the queue and no record.
type slot struct {
	at  int64 // deadline, nanoseconds since Epoch
	seq uint64
	t   *Timer
}

func (a *slot) before(b *slot) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// arity is the heap's fan-out. (at, seq) is a total order, so the fire order
// is the same for any value and the choice is speed alone: 2 and 4 tie in
// BenchmarkScheduleAndFire, 4 runs the repository benchmark's workloads 1–2 %
// faster, 8 loses at both of the benchmark's depths.
const arity = 4

// The queue is a d-ary min-heap on (at, seq) in which every record knows its
// index, which is what lets Stop and Reset work in place. Sifting moves a
// hole: entries on the path shift one level, each with a single index write,
// and the entry being placed is written once, where the hole ends up.

// up places e at or above the hole at i.
func (s *Sim) up(i int, e slot) {
	q := s.queue
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].t.idx = i
		i = p
	}
	q[i] = e
	e.t.idx = i
}

// down places e at or below the hole at i.
func (s *Sim) down(i int, e slot) {
	q := s.queue
	for c := arity*i + 1; c < len(q); c = arity*i + 1 {
		least := c
		for k := c + 1; k < min(c+arity, len(q)); k++ {
			if q[k].before(&q[least]) {
				least = k
			}
		}
		if !q[least].before(&e) {
			break
		}
		q[i] = q[least]
		q[i].t.idx = i
		i = least
	}
	q[i] = e
	e.t.idx = i
}

// fix places e in the hole at i, in whichever direction its key sends it.
func (s *Sim) fix(i int, e slot) {
	if i > 0 && e.before(&s.queue[(i-1)/arity]) {
		s.up(i, e)
	} else {
		s.down(i, e)
	}
}

// remove takes the record at i off the queue; the last entry fills the hole.
func (s *Sim) remove(i int) {
	n := len(s.queue) - 1
	s.queue[i].t.idx = -1
	last := s.queue[n]
	s.queue[n] = slot{}
	s.queue = s.queue[:n]
	if i < n {
		s.fix(i, last)
	}
}
