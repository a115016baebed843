// Package sim provides a deterministic discrete-event simulation engine.
//
// All protocol code in this repository is written against the abstract
// runtime in package env; under test and in the benchmark harness that
// runtime is backed by a Sim, which executes events in virtual time on a
// single goroutine. A seeded random source makes every run reproducible.
//
// Events fire in (deadline, scheduling order), a total order, from two tiers:
// a calendar of short buckets for the events due within about a millisecond
// — nearly all of them, since a ring token hop and a frame's flight are that
// short — and a 4-ary heap for the rest. Which tier holds an event is never
// visible in what fires when.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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
	queue []slot // events past the calendar's horizon: a min-heap on (at, seq)
	cal   calendar
	seq   uint64 // scheduling order: ties on the deadline fire FIFO, deterministically
	rng   *rand.Rand
	fired uint64
	// free recycles records scheduled with Post: nobody holds a handle to
	// those, so they cannot be referenced after firing. Pooling keeps a
	// fault program's ticks allocation-free; a high-rate path embeds its own
	// Timer instead (see Init).
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
func (s *Sim) Pending() int { return len(s.queue) + s.cal.n }

// Timer is a scheduled event: the record in the simulator's queue is itself
// the handle, and its owner may arm it any number of times with Reset.
type Timer struct {
	s          *Sim
	run        Runnable
	next, prev *Timer // neighbours in a calendar bucket's list
	at         int64  // deadline while on the calendar; the heap's slot holds its own
	idx        int32  // position in s.queue, or onCalendar, or unqueued
	pooled     bool   // scheduled by Post: no handle outstanding
}

// A record's idx when it is not on the heap.
const (
	unqueued   = -1
	onCalendar = -2
)

// Stop cancels the timer, taking it off the queue. It reports whether the
// call prevented the event from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.s == nil || t.idx == unqueued {
		return false
	}
	t.s.dequeue(t)
	return true
}

// Reset arms the timer to fire d from the current virtual time, dropping any
// deadline it was armed with. Negative durations are treated as zero.
func (t *Timer) Reset(d time.Duration) { t.s.schedule(t, d) }

// Runnable is a pre-allocated scheduled callback. Implementations are
// typically pooled structs carrying their own context, which is what lets
// high-rate traffic paths schedule without allocating a closure per event.
type Runnable interface{ Run() }

// funcRunnable runs a plain callback. A func value fits an interface word,
// so the conversion allocates nothing.
type funcRunnable func()

func (f funcRunnable) Run() { f() }

// schedule is the one way onto the queue: After, Post and Reset all end
// here. Deadlines in the past are clamped to now, one too far out for the
// clock to reach saturates instead of wrapping, and events fire in (deadline,
// scheduling order); every call, including one that moves a record already
// queued, takes the next place in scheduling order. A deadline inside the
// calendar's horizon goes to the calendar, any other to the heap; a record
// the heap keeps moves in place.
func (s *Sim) schedule(t *Timer, d time.Duration) {
	at := s.now + int64(max(d, 0))
	if at < s.now {
		at = math.MaxInt64
	}
	e := slot{at: at, seq: s.seq, t: t}
	s.seq++
	if at>>calShift < s.now>>calShift+calBuckets {
		if t.idx != unqueued {
			s.dequeue(t)
		}
		t.at = at
		s.cal.insert(t)
		return
	}
	switch t.idx {
	case onCalendar:
		s.cal.unlink(t)
		fallthrough
	case unqueued:
		s.queue = append(s.queue, e)
		s.up(len(s.queue)-1, e)
	default:
		s.fix(int(t.idx), e)
	}
}

// dequeue takes a queued record off whichever tier holds it.
func (s *Sim) dequeue(t *Timer) {
	if t.idx == onCalendar {
		s.cal.unlink(t)
	} else {
		s.remove(int(t.idx))
	}
}

// newTimer returns an unarmed record running fn. It is the caller's handle
// and is never reused.
func (s *Sim) newTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: nil callback scheduled")
	}
	return &Timer{s: s, run: funcRunnable(fn), idx: unqueued}
}

// Init is newTimer for a record embedded in the struct that carries the
// callback's context: r runs at each firing, and arming allocates nothing.
func (s *Sim) Init(t *Timer, r Runnable) { *t = Timer{s: s, run: r, idx: unqueued} }

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
		t = &Timer{s: s, idx: unqueued, pooled: true}
	}
	t.run = r // all a recycled record lacks: Step cleared it, dequeue left idx unqueued
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
	t, at := s.head()
	if t == nil {
		return false
	}
	s.fire(t, at)
	return true
}

// head returns the record that fires next and its deadline, or nil when
// nothing is pending: the earlier of the calendar's first record and the
// heap's root. A calendar record never sorts before a heap record with the
// same deadline (see calendar), so a tie goes to the heap.
func (s *Sim) head() (*Timer, int64) {
	if s.cal.n > 0 {
		t := s.cal.first(int(s.now>>calShift) & (calBuckets - 1))
		if len(s.queue) == 0 || t.at < s.queue[0].at {
			return t, t.at
		}
	}
	if len(s.queue) == 0 {
		return nil, 0
	}
	return s.queue[0].t, s.queue[0].at
}

// fire takes t, the head, off the queue and runs it at its deadline at.
func (s *Sim) fire(t *Timer, at int64) {
	s.dequeue(t)
	if at < s.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", Epoch.Add(time.Duration(at)), s.Now()))
	}
	s.now = at
	s.fired++
	r := t.run
	if t.pooled {
		// No handle outstanding: recycle the record before running so
		// nested Posts can reuse it immediately.
		t.run = nil
		s.free = append(s.free, t)
	}
	r.Run()
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
	for {
		tm, at := s.head()
		if tm == nil || at > limit {
			break
		}
		s.fire(tm, at)
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
// is the same for any value and the choice is speed alone. Measured when the
// heap held every event: 2 and 4 tie in BenchmarkScheduleAndFire, 4 runs the
// repository benchmark's workloads 1–2 % faster, 8 loses at both of the
// benchmark's depths. The heap now holds only the events past the calendar's
// horizon: token-loss, heartbeat and fault timers.
const arity = 4

// The heap is a d-ary min-heap on (at, seq) in which every record knows its
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
		q[i].t.idx = int32(i)
		i = p
	}
	q[i] = e
	e.t.idx = int32(i)
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
		q[i].t.idx = int32(i)
		i = least
	}
	q[i] = e
	e.t.idx = int32(i)
}

// fix places e in the hole at i, in whichever direction its key sends it.
func (s *Sim) fix(i int, e slot) {
	if i > 0 && e.before(&s.queue[(i-1)/arity]) {
		s.up(i, e)
	} else {
		s.down(i, e)
	}
}

// remove takes the record at i off the heap; the last entry fills the hole.
func (s *Sim) remove(i int) {
	n := len(s.queue) - 1
	s.queue[i].t.idx = unqueued
	last := s.queue[n]
	s.queue[n] = slot{}
	s.queue = s.queue[:n]
	if i < n {
		s.fix(i, last)
	}
}

// The calendar's geometry: calBuckets buckets, each 1<<calShift ns wide.
// An event goes on the calendar when its deadline's bucket number at>>calShift
// is less than calBuckets past now's: a horizon of 511 to 512 bucket widths,
// 1.047–1.049 ms, which takes a 1 ms token hold and every frame in flight.
const (
	calShift   = 11  // 2.048 µs
	calBuckets = 512 // a power of two, at most 64*64 for the two-level bitmap
)

// calendar is the near tier of the event set (Brown's calendar queue, without
// the resizing): a ring of buckets, each a circular doubly linked list of
// records in (at, seq) order, and a bitmap of the non-empty ones.
//
// Buckets never alias. Every queued record has at ≥ now, and a record goes on
// the calendar only while at>>calShift < now>>calShift + calBuckets; now only
// grows, so that bound holds for as long as it stays. The bucket numbers of
// the records on the calendar therefore span fewer than calBuckets
// consecutive values, one per ring slot, and the first non-empty slot at or
// after now's, circularly, holds the earliest records.
//
// The lists carry no seq. A new arming takes the largest seq yet, so it goes
// after every record with the same deadline. And a record on the calendar was
// armed after any record on the heap with the same deadline: the heap one
// was armed while that deadline was past the horizon, the calendar one once
// it was inside it, and now only grows.
type calendar struct {
	n      int                     // records on the calendar
	used   uint64                  // bit w set iff words[w] != 0
	words  [calBuckets / 64]uint64 // bit b%64 of word b/64 set iff bucket b is non-empty
	bucket [calBuckets]*Timer      // each list's earliest record; its prev is the latest
}

// insert links t, whose at is set, into its bucket after every record that
// does not sort after it.
func (c *calendar) insert(t *Timer) {
	b := int(t.at>>calShift) & (calBuckets - 1)
	c.n++
	t.idx = onCalendar
	h := c.bucket[b]
	if h == nil {
		t.next, t.prev = t, t
		c.bucket[b] = t
		c.words[b>>6] |= 1 << (b & 63)
		c.used |= 1 << (b >> 6)
		return
	}
	// Search from whichever end's deadline is nearer t's. Either loop stops
	// inside the list: from the front, the latest sorts after t; from the
	// back, t does not sort before the earliest.
	p := h.prev // the latest
	if t.at-h.at < p.at-t.at {
		q := h
		for q.at <= t.at {
			q = q.next
		}
		if q == h {
			c.bucket[b] = t
		}
		p = q.prev
	} else {
		for p.at > t.at {
			p = p.prev
		}
	}
	t.prev, t.next = p, p.next
	p.next.prev = t
	p.next = t
}

// unlink takes t off the calendar.
func (c *calendar) unlink(t *Timer) {
	b := int(t.at>>calShift) & (calBuckets - 1)
	if t.next == t {
		c.bucket[b] = nil
		if c.words[b>>6] &^= 1 << (b & 63); c.words[b>>6] == 0 {
			c.used &^= 1 << (b >> 6)
		}
	} else {
		t.prev.next, t.next.prev = t.next, t.prev
		if c.bucket[b] == t {
			c.bucket[b] = t.next
		}
	}
	t.next, t.prev = nil, nil
	t.idx = unqueued
	c.n--
}

// first returns the earliest record on a non-empty calendar: the head of the
// first non-empty bucket at or after from, now's bucket, circularly.
func (c *calendar) first(from int) *Timer {
	w := from >> 6
	if m := c.words[w] >> (from & 63); m != 0 {
		return c.bucket[from+bits.TrailingZeros64(m)]
	}
	m := c.used &^ (2<<w - 1) // the words after w
	if m == 0 {
		m = c.used // none: wrap to the lowest bucket
	}
	w = bits.TrailingZeros64(m)
	return c.bucket[w<<6|bits.TrailingZeros64(c.words[w])]
}
