package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewStartsAtEpoch(t *testing.T) {
	s := New(1)
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), Epoch)
	}
	if s.Elapsed() != 0 {
		t.Fatalf("Elapsed() = %v, want 0", s.Elapsed())
	}
}

func TestAfterRunsInOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if s.Elapsed() != 3*time.Second {
		t.Fatalf("Elapsed = %v, want 3s", s.Elapsed())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want FIFO", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	var tm *Timer
	tm = s.After(time.Second, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop() = true after fire, want false")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var at []time.Duration
	s.After(time.Second, func() {
		at = append(at, s.Elapsed())
		s.After(time.Second, func() {
			at = append(at, s.Elapsed())
		})
	})
	s.Run()
	if len(at) != 2 || at[0] != time.Second || at[1] != 2*time.Second {
		t.Fatalf("nested fire times = %v", at)
	}
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	s := New(1)
	early, late := false, false
	s.After(time.Second, func() { early = true })
	s.After(10*time.Second, func() { late = true })
	s.RunUntil(Epoch.Add(5 * time.Second))
	if !early || late {
		t.Fatalf("early=%v late=%v, want true,false", early, late)
	}
	if s.Elapsed() != 5*time.Second {
		t.Fatalf("Elapsed = %v, want 5s", s.Elapsed())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.RunFor(5 * time.Second)
	if !late {
		t.Fatal("late event did not fire after RunFor")
	}
}

func TestPastDeadlineClampsToNow(t *testing.T) {
	s := New(1)
	s.RunUntil(Epoch.Add(time.Minute))
	fired := time.Time{}
	s.After(Epoch.Sub(s.Now()), func() { fired = s.Now() })
	s.Run()
	if !fired.Equal(Epoch.Add(time.Minute)) {
		t.Fatalf("past event fired at %v, want clamped to now", fired)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		s := New(seed)
		var out []int64
		var step func()
		step = func() {
			out = append(out, s.Elapsed().Milliseconds())
			if len(out) < 50 {
				d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
				s.After(d, step)
			}
		}
		s.After(0, step)
		s.Run()
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRandDiffersBySeed(t *testing.T) {
	a, b := New(1).Rand().Int63(), New(2).Rand().Int63()
	if a == b {
		t.Fatal("different seeds produced identical first draw")
	}
}

// TestQuickOrdering is a property-based check: any batch of randomly timed
// events executes in nondecreasing deadline order.
func TestQuickOrdering(t *testing.T) {
	prop := func(seed int64, delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		s := New(seed)
		var fired []time.Duration
		for _, d := range delaysMs {
			s.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, s.Elapsed())
			})
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delaysMs)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStopInsideEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	var victim *Timer
	victim = s.After(2*time.Second, func() { fired = true })
	s.After(time.Second, func() { victim.Stop() })
	s.Run()
	if fired {
		t.Fatal("timer fired despite Stop from earlier event")
	}
}

type runFunc func()

func (f runFunc) Run() { f() }

// queued returns every record on either tier: the heap's in slot order, then
// the calendar's bucket by bucket.
func queued(s *Sim) []*Timer {
	var out []*Timer
	for _, e := range s.queue {
		out = append(out, e.t)
	}
	for _, h := range s.cal.bucket {
		for r := h; r != nil; r = r.next {
			out = append(out, r)
			if r.next == h {
				break
			}
		}
	}
	return out
}

// TestAfterAndPostShareOneOrder pins that the three entry points are one
// queue discipline: at equal deadlines events fire in scheduling order,
// whichever entry point scheduled them.
func TestAfterAndPostShareOneOrder(t *testing.T) {
	s := New(1)
	var got []int
	note := func(i int) func() { return func() { got = append(got, i) } }
	s.After(time.Second, note(0))
	s.Post(time.Second, runFunc(note(1)))
	s.After(time.Second, note(2))
	s.Post(time.Second, runFunc(note(3)))
	s.After(time.Second, note(4))
	s.Run()
	for i := 0; i < 5; i++ {
		if len(got) != 5 || got[i] != i {
			t.Fatalf("fire order = %v, want scheduling order 0..4", got)
		}
	}
}

// TestTimerHandleIsNeverRecycled pins the one asymmetry between the entry
// points: a record Post scheduled is reused, a record handed out as a
// *Timer never is — so a stale handle stays inert for good.
func TestTimerHandleIsNeverRecycled(t *testing.T) {
	s := New(1)
	tm := s.After(time.Second, func() {})
	s.Run()
	if tm.Stop() || tm.Stop() {
		t.Fatal("Stop() = true after fire, want false both times")
	}
	fired := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			s.Post(time.Second, runFunc(func() { fired++ }))
		}
		for _, queued := range queued(s) {
			if queued == tm {
				t.Fatal("Post reused a record that After handed out as a *Timer")
			}
		}
		if tm.Stop() {
			t.Fatal("stale handle cancelled something")
		}
		s.Run()
	}
	if fired != 12 {
		t.Fatalf("fired %d posted events, want 12", fired)
	}
	if len(s.free) != 4 {
		t.Fatalf("free list holds %d records after three rounds of four, want 4 reused", len(s.free))
	}
}

// TestPendingExcludesStoppedTimers pins that Stop takes the record off the
// queue at once: a cancelled timer is not pending and never surfaces.
func TestPendingExcludesStoppedTimers(t *testing.T) {
	s := New(1)
	a := s.After(time.Second, func() {})
	s.After(2*time.Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	a.Stop()
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after Stop, want 1", s.Pending())
	}
	a.Reset(time.Second)
	a.Reset(3 * time.Second) // moving an armed timer adds nothing
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d after re-arming, want 2", s.Pending())
	}
	s.Run()
	if s.Fired() != 2 || s.Pending() != 0 {
		t.Fatalf("Fired = %d, Pending = %d after Run, want 2 and 0", s.Fired(), s.Pending())
	}
}

// TestResetDoesNotAllocate pins the owned-timer contract: re-arming a timer
// costs no allocation whether it is armed, has fired or was stopped.
func TestResetDoesNotAllocate(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ { // a standing population, so the sift has work
		s.After(time.Hour+time.Duration(i)*time.Second, func() {})
	}
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	for name, step := range map[string]func(){
		"armed":   func() { tm.Reset(time.Millisecond); tm.Reset(2 * time.Millisecond) },
		"fired":   func() { tm.Reset(time.Millisecond); s.Step() },
		"stopped": func() { tm.Reset(time.Millisecond); tm.Stop() },
	} {
		if avg := testing.AllocsPerRun(200, step); avg != 0 {
			t.Errorf("Reset of an %s timer allocates %.1f, want 0", name, avg)
		}
	}
	if fired == 0 {
		t.Fatal("the re-armed timer never fired")
	}
}

// noted is a posted event that knows its id, so a check can name the record
// the free list handed out.
type noted struct {
	id  int
	got *[]int
}

func (n *noted) Run() { *n.got = append(*n.got, n.id) }

// TestTimerOrderMatchesReferenceModel drives random interleavings of NewTimer,
// Reset, Stop, After, Post, Step and RunUntil against the specification the
// two tiers implement: a list of armed (deadline, scheduling order) pairs, of
// which the smallest fires next. Fire order, the clock, Fired, Pending and
// every Stop result must agree. Delays mix zero, ties inside one calendar
// bucket, the calendar's horizon edge and one nanosecond either side, the
// test's own range, seconds and saturation at math.MaxInt64, so Reset moves
// records between the tiers both ways and ties cross them. After every
// operation both tiers must be well formed:
//   - the heap: each record's idx is its slot, each slot carries the key the
//     model holds for its record (the slot is the key's only home), and no
//     slot sorts before its parent;
//   - the calendar: each record sits in the bucket its deadline names, inside
//     the horizon, with the deadline the model holds; each list is linked both
//     ways and in (at, seq) order; a bitmap bit is set exactly where a bucket
//     is non-empty; and the count is the number of records.
//
// The deep variant starts from a standing population wide enough to fill
// every level and every child position of the d-ary layout, so Reset and Stop
// in place and the pop are exercised at all of them.
func TestTimerOrderMatchesReferenceModel(t *testing.T) {
	type armed struct {
		at  time.Duration
		seq uint64
		id  int
	}
	for _, tc := range []struct {
		name            string
		seeds           int64
		standing, ops   int
		deadlineRangeMs int // small against the population: many ties
	}{
		{name: "shallow", seeds: 40, ops: 400, deadlineRangeMs: 5},
		{name: "deep", seeds: 4, standing: 2500, ops: 3000, deadlineRangeMs: 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var toHeap, toCalendar int // Resets that moved a record between the tiers
			for seed := int64(1); seed <= tc.seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				s := New(seed)
				var (
					model  []armed // the reference: everything currently armed
					seq    uint64  // scheduling order, one per arming call
					got    []int   // ids in the order the simulator fired them
					want   []int   // ids in the order the model says
					timers []*Timer
					fired  uint64
				)
				deadline := func(d time.Duration) time.Duration {
					at := s.Elapsed() + d
					if at < s.Elapsed() {
						return math.MaxInt64
					}
					return at
				}
				arm := func(id int, d time.Duration) {
					for i, a := range model {
						if a.id == id {
							model = append(model[:i], model[i+1:]...)
							break
						}
					}
					model = append(model, armed{at: deadline(d), seq: seq, id: id})
					seq++
				}
				// pop fires the model's first armed event if it is due by limit.
				pop := func(limit time.Duration) (armed, bool) {
					if len(model) == 0 {
						return armed{}, false
					}
					first := 0
					for i, a := range model {
						if a.at < model[first].at || a.at == model[first].at && a.seq < model[first].seq {
							first = i
						}
					}
					a := model[first]
					if a.at > limit {
						return armed{}, false
					}
					want = append(want, a.id)
					model = append(model[:first], model[first+1:]...)
					fired++
					return a, true
				}
				bySeq := map[uint64]armed{}
				byID := map[int]armed{}
				handles := map[*Timer]int{}
				idOf := func(r *Timer) int {
					if n, ok := r.run.(*noted); ok {
						return n.id
					}
					return handles[r]
				}
				check := func(op int) {
					t.Helper()
					clear(bySeq)
					clear(byID)
					for _, a := range model {
						bySeq[a.seq], byID[a.id] = a, a
					}
					for i := range s.queue {
						e := &s.queue[i]
						a, ok := bySeq[e.seq]
						switch {
						case int(e.t.idx) != i:
							t.Fatalf("seed %d op %d: record in slot %d has idx %d", seed, op, i, e.t.idx)
						case !ok || time.Duration(e.at) != a.at:
							t.Fatalf("seed %d op %d: slot %d carries key (%d, %d), model has %+v", seed, op, i, e.at, e.seq, a)
						case timers[a.id] != nil && timers[a.id] != e.t:
							t.Fatalf("seed %d op %d: slot %d carries timer %d's key but another record", seed, op, i, a.id)
						case i > 0 && e.before(&s.queue[(i-1)/arity]):
							t.Fatalf("seed %d op %d: slot %d sorts before its parent", seed, op, i)
						}
					}
					n := 0
					for b, h := range s.cal.bucket {
						if set := s.cal.words[b/64]>>(b%64)&1 == 1; set != (h != nil) {
							t.Fatalf("seed %d op %d: bucket %d has bit %v, list head %p", seed, op, b, set, h)
						}
						var prev armed
						for r := h; r != nil; r = r.next {
							a, ok := byID[idOf(r)]
							switch {
							case r.idx != onCalendar || r.next.prev != r:
								t.Fatalf("seed %d op %d: bucket %d holds a record with idx %d, linked %v", seed, op, b, r.idx, r.next.prev == r)
							case !ok || time.Duration(r.at) != a.at:
								t.Fatalf("seed %d op %d: bucket %d holds deadline %d, model has %+v", seed, op, b, r.at, a)
							case int(r.at>>calShift)%calBuckets != b:
								t.Fatalf("seed %d op %d: deadline %d sits in bucket %d", seed, op, r.at, b)
							case r.at < s.now || r.at>>calShift >= s.now>>calShift+calBuckets:
								t.Fatalf("seed %d op %d: deadline %d is outside the horizon of now %d", seed, op, r.at, s.now)
							case r != h && (a.at < prev.at || a.at == prev.at && a.seq < prev.seq):
								t.Fatalf("seed %d op %d: bucket %d lists %+v after %+v", seed, op, b, a, prev)
							}
							prev = a
							n++
							if r.next == h {
								break
							}
						}
					}
					for w, bits := range s.cal.words {
						if set := s.cal.used>>w&1 == 1; set != (bits != 0) {
							t.Fatalf("seed %d op %d: summary bit %d is %v over word %#x", seed, op, w, set, bits)
						}
					}
					if n != s.cal.n {
						t.Fatalf("seed %d op %d: calendar counts %d, lists hold %d", seed, op, s.cal.n, n)
					}
				}
				newID := 0
				note := func(id int) func() { return func() { got = append(got, id) } }
				after := func(id int, d time.Duration) *Timer {
					tm := s.After(d, note(id))
					handles[tm] = id
					arm(id, d)
					return tm
				}
				delay := func() time.Duration {
					switch k := rng.Intn(32); {
					case k == 0:
						return 0
					case k == 1 && s.now < 1<<40: // rare: it parks a record at the end of time
						return math.MaxInt64
					case k < 4:
						return time.Duration(rng.Int63n(3 * int64(time.Second)))
					case k < 8 && s.now < 1<<40: // the horizon's edge and one nanosecond either side
						edge := (s.now>>calShift + calBuckets) << calShift
						return time.Duration(edge - s.now + rng.Int63n(3) - 1)
					case k < 14: // a few deadlines inside one or two buckets: ties
						return time.Duration(rng.Intn(4)) * time.Microsecond
					default:
						return time.Duration(rng.Intn(tc.deadlineRangeMs)) * time.Millisecond
					}
				}
				for ; newID < tc.standing; newID++ {
					timers = append(timers, after(newID, delay()))
				}
				for op := 0; op < tc.ops; op++ {
					d := delay()
					switch k := rng.Intn(11); {
					case k < 2: // After
						timers = append(timers, after(newID, d))
						newID++
					case k < 3: // Post
						s.Post(d, &noted{id: newID, got: &got})
						arm(newID, d)
						newID++
						timers = append(timers, nil) // keeps ids and indexes aligned
					case k < 4: // NewTimer, unarmed
						tm := s.NewTimer(note(newID)).(*Timer)
						handles[tm] = newID
						timers = append(timers, tm)
						newID++
					case k < 6 && len(timers) > 0: // Reset
						id := rng.Intn(len(timers))
						if tm := timers[id]; tm != nil {
							from := tm.idx
							tm.Reset(d)
							arm(id, d)
							switch {
							case from >= 0 && tm.idx == onCalendar:
								toCalendar++
							case from == onCalendar && tm.idx >= 0:
								toHeap++
							}
						}
					case k < 8 && len(timers) > 0: // Stop
						id := rng.Intn(len(timers))
						wasArmed := false
						for i, a := range model {
							if a.id == id && timers[id] != nil {
								model = append(model[:i], model[i+1:]...)
								wasArmed = true
								break
							}
						}
						if stopped := timers[id].Stop(); stopped != wasArmed {
							t.Fatalf("seed %d op %d: Stop(%d) = %v, model says %v", seed, op, id, stopped, wasArmed)
						}
					case k < 9 && s.now < 1<<40: // RunUntil a limit that falls inside a bucket
						limit := s.Elapsed() + time.Duration(rng.Int63n(3<<calShift))
						s.RunUntil(Epoch.Add(limit))
						for _, ok := pop(limit); ok; _, ok = pop(limit) {
						}
						if s.Elapsed() != limit {
							t.Fatalf("seed %d op %d: RunUntil(%v) left the clock at %v", seed, op, limit, s.Elapsed())
						}
					default: // Step
						stepped := s.Step()
						a, ok := pop(math.MaxInt64)
						switch {
						case stepped != ok:
							t.Fatalf("seed %d op %d: Step = %v, model fired %v", seed, op, stepped, ok)
						case ok && s.Elapsed() != a.at:
							t.Fatalf("seed %d op %d: fired at %v, model says %v", seed, op, s.Elapsed(), a.at)
						}
					}
					if s.Pending() != len(model) || s.Fired() != fired {
						t.Fatalf("seed %d op %d: Pending = %d, Fired = %d; model has %d armed, %d fired",
							seed, op, s.Pending(), s.Fired(), len(model), fired)
					}
					check(op)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: fired %d events, model %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: fire order diverges at %d: got %v, want %v", seed, i, got[i], want[i])
					}
				}
			}
			if toHeap == 0 || toCalendar == 0 {
				t.Fatalf("Reset moved %d records calendar → heap and %d heap → calendar, want both", toHeap, toCalendar)
			}
		})
	}
}

// TestTimerArmedForeverStaysPending pins the far end of the deadline range: a
// delay the clock can never reach saturates instead of wrapping into the past.
func TestTimerArmedForeverStaysPending(t *testing.T) {
	s := New(1)
	s.RunFor(time.Second) // now > 0, so now+MaxInt64 would wrap
	forever := s.After(math.MaxInt64, func() { t.Error("a timer armed forever fired") })
	ordinary := false
	s.After(time.Hour, func() { ordinary = true })
	s.RunFor(2 * time.Hour)
	if !ordinary {
		t.Fatal("a timer armed after the forever one did not fire")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want the forever timer alone", s.Pending())
	}
	if !forever.Stop() {
		t.Fatal("Stop() = false on the forever timer, want it still pending")
	}
}

// BenchmarkScheduleAndFire is one Post and one Step, timed per event, in the
// shapes the workloads build:
//   - pending=N: a standing population of N with delays spread over N µs, so
//     new events land at every depth. 64 is a busy traffic trial's depth;
//     4 096 is past loaded_failover_observed's peak of about 2 800.
//   - burst: 2 800 Posts at one instant with 100–300 µs delays, then all of
//     them fire: loaded_failover_observed's retransmit burst after a fault.
//   - mix: a standing 160 (the ring workloads' peak) of frames landing in
//     100–300 µs, 1 ms token holds and 0.4–1 s fault timers.
func BenchmarkScheduleAndFire(b *testing.B) {
	x := uint64(88172645463325252) // xorshift64: cheap against the queue work
	rnd := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	frame := func() time.Duration { return time.Duration(100_000 + rnd(200_001)) }
	mix := func() time.Duration {
		switch k := rnd(100); {
		case k < 80:
			return frame()
		case k < 95:
			return time.Millisecond
		default:
			return time.Duration(400_000_000 + rnd(600_000_001))
		}
	}
	var r Runnable = runFunc(func() {})
	steady := func(pending int, delay func() time.Duration) func(*testing.B) {
		return func(b *testing.B) {
			s := New(1)
			for i := 0; i < pending; i++ {
				s.Post(delay(), r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Post(delay(), r)
				s.Step()
			}
		}
	}
	for _, pending := range []int{64, 4096} {
		spread := func() time.Duration { return time.Duration(rnd(uint64(pending))) * time.Microsecond }
		b.Run(fmt.Sprintf("pending=%d", pending), steady(pending, spread))
	}
	b.Run("burst", func(b *testing.B) {
		const burst = 2800
		s := New(1)
		fire := func(n int) {
			for j := 0; j < n; j++ {
				s.Post(frame(), r)
			}
			for s.Step() {
			}
		}
		fire(burst) // fills the free list, as the workload's first burst does
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += burst {
			fire(min(burst, b.N-i))
		}
	})
	b.Run("mix", steady(160, mix))
}
