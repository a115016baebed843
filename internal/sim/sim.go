// Package sim provides a deterministic discrete-event simulation engine.
//
// All protocol code in this repository is written against the abstract
// runtime in package env; under test and in the benchmark harness that
// runtime is backed by a Sim, which executes events in virtual time on a
// single goroutine. A seeded random source makes every run reproducible.
package sim

import (
	"container/heap"
	"fmt"
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
	now   time.Time
	queue eventQueue
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
	return &Sim{
		now: Epoch,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Elapsed returns how much virtual time has passed since the simulation
// started.
func (s *Sim) Elapsed() time.Duration { return s.now.Sub(Epoch) }

// Rand returns the simulator's seeded random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Fired reports how many events have executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending reports how many events are scheduled but not yet executed,
// including cancelled timers that have not been collected.
func (s *Sim) Pending() int { return s.queue.Len() }

// Timer is a scheduled event: the record in the simulator's queue is itself
// the handle At and After return.
type Timer struct {
	at        time.Time
	seq       uint64
	fn        func()
	run       Runnable // set instead of fn by Post
	cancelled bool
	done      bool
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.cancelled || t.done {
		return false
	}
	t.cancelled = true
	return true
}

// Runnable is a pre-allocated scheduled callback. Implementations are
// typically pooled structs carrying their own context, which is what lets
// high-rate traffic paths schedule without allocating a closure per event.
type Runnable interface{ Run() }

// schedule is the one way onto the queue: At, After and Post all end here.
// Deadlines in the past are clamped to now, and events fire in (deadline,
// scheduling order). Exactly one of fn and r is set. A record carrying a
// Runnable has no handle outstanding, so it is drawn from — and, after it
// fires, returned to — the free list; a record carrying fn is the caller's
// handle and is never reused.
func (s *Sim) schedule(at time.Time, fn func(), r Runnable) *Timer {
	if fn == nil && r == nil {
		panic("sim: nil callback scheduled")
	}
	if at.Before(s.now) {
		at = s.now
	}
	var t *Timer
	if n := len(s.free); r != nil && n > 0 {
		t = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		t = &Timer{}
	}
	*t = Timer{at: at, seq: s.seq, fn: fn, run: r}
	s.seq++
	heap.Push(&s.queue, t)
	return t
}

// At schedules fn to run at instant t. Instants in the past run as soon as
// control returns to the event loop, at the current virtual time.
func (s *Sim) At(t time.Time, fn func()) *Timer { return s.schedule(t, fn, nil) }

// After schedules fn to run d from the current virtual time. Negative
// durations are treated as zero.
func (s *Sim) After(d time.Duration, fn func()) *Timer { return s.schedule(s.now.Add(d), fn, nil) }

// Post schedules r to run d from the current virtual time. It returns no
// handle — the event cannot be cancelled — which is what lets the simulator
// recycle the record after it fires.
func (s *Sim) Post(d time.Duration, r Runnable) { s.schedule(s.now.Add(d), nil, r) }

// AfterFunc adapts After to the env.Clock interface, so a bare simulator can
// serve as the clock for protocol code that is not tied to a simulated host.
func (s *Sim) AfterFunc(d time.Duration, fn func()) env.Timer {
	return s.After(d, fn)
}

var _ env.Clock = (*Sim)(nil)

// Step executes the next pending event, advancing virtual time to its
// deadline. It reports whether an event was executed.
func (s *Sim) Step() bool {
	for s.queue.Len() > 0 {
		t := heap.Pop(&s.queue).(*Timer)
		if t.cancelled {
			continue
		}
		if t.at.Before(s.now) {
			panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t.at, s.now))
		}
		s.now = t.at
		t.done = true
		s.fired++
		if r := t.run; r != nil {
			// No handle outstanding: recycle the record before running so
			// nested Posts can reuse it immediately.
			t.run = nil
			s.free = append(s.free, t)
			r.Run()
		} else {
			t.fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with deadlines at or before t, then advances the
// clock to exactly t. Events scheduled beyond t remain pending.
func (s *Sim) RunUntil(t time.Time) {
	for {
		ev := s.queue.peekLive()
		if ev == nil || ev.at.After(t) {
			break
		}
		s.Step()
	}
	if t.After(s.now) {
		s.now = t
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Sim) RunFor(d time.Duration) {
	s.RunUntil(s.now.Add(d))
}

// eventQueue is a min-heap ordered by (deadline, insertion sequence) so that
// ties break deterministically in FIFO order.
type eventQueue []*Timer

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*Timer)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func (q *eventQueue) peekLive() *Timer {
	for q.Len() > 0 {
		ev := (*q)[0]
		if !ev.cancelled {
			return ev
		}
		heap.Pop(q)
	}
	return nil
}
