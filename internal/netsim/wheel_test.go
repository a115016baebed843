package netsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"wackamole/internal/sim"
)

func TestWheelFiresInOrderWithCoalescing(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	w := NewTimerWheel(h, 10*time.Millisecond, 64)

	var fired []int
	var at []time.Duration
	for i, d := range []time.Duration{
		25 * time.Millisecond, // rounds up to 30ms
		5 * time.Millisecond,  // rounds up to 10ms
		30 * time.Millisecond, // exact boundary
	} {
		i := i
		w.Schedule(d, func() {
			fired = append(fired, i)
			at = append(at, s.Elapsed())
		})
	}
	s.RunFor(time.Second)

	if len(fired) != 3 {
		t.Fatalf("fired %d timers, want 3", len(fired))
	}
	// 5ms fires first; the two 30ms-boundary timers fire at the same tick in
	// arming order.
	if fired[0] != 1 || fired[1] != 0 || fired[2] != 2 {
		t.Fatalf("fire order = %v, want [1 0 2]", fired)
	}
	if at[0] != 10*time.Millisecond {
		t.Errorf("5ms timer fired at %v, want coalesced to 10ms", at[0])
	}
	if at[1] != 30*time.Millisecond || at[2] != 30*time.Millisecond {
		t.Errorf("30ms timers fired at %v and %v, want 30ms", at[1], at[2])
	}
	if w.Active() != 0 {
		t.Errorf("Active() = %d after drain, want 0", w.Active())
	}
}

func TestWheelStopPreventsFire(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	w := NewTimerWheel(hosts[0], 10*time.Millisecond, 64)

	fired := false
	tm := w.Schedule(50*time.Millisecond, func() { fired = true })
	s.RunFor(20 * time.Millisecond)
	if !tm.Stop() || w.Active() != 0 {
		t.Errorf("Stop on an armed timeout must report true and leave Active() = 0, got %d", w.Active())
	}
	s.RunFor(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestWheelMultipleRevolutions(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	// 4 slots × 10ms tick = one revolution per 40ms; a 100ms timeout needs
	// to survive two sweeps of its slot before firing.
	w := NewTimerWheel(hosts[0], 10*time.Millisecond, 4)

	var firedAt time.Duration
	w.Schedule(100*time.Millisecond, func() { firedAt = s.Elapsed() })
	s.RunFor(time.Second)
	if firedAt != 100*time.Millisecond {
		t.Fatalf("fired at %v, want 100ms", firedAt)
	}
}

func TestWheelRearmAfterIdle(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	w := NewTimerWheel(hosts[0], 10*time.Millisecond, 16)

	n := 0
	w.Schedule(10*time.Millisecond, func() { n++ })
	s.RunFor(200 * time.Millisecond) // wheel drains and disarms
	w.Schedule(15*time.Millisecond, func() { n++ })
	s.RunFor(200 * time.Millisecond)
	if n != 2 {
		t.Fatalf("fired %d timers across re-arm, want 2", n)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("%d events still pending after idle wheel, want 0 (wheel should disarm)", got)
	}
}

func TestWheelDeadHostDropsTimers(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	w := NewTimerWheel(h, 10*time.Millisecond, 16)

	fired := false
	w.Schedule(50*time.Millisecond, func() { fired = true })
	s.RunFor(20 * time.Millisecond)
	h.Crash()
	s.RunFor(time.Second)
	if fired {
		t.Fatal("timer fired on a crashed host")
	}
	if w.Active() != 0 {
		t.Errorf("Active() = %d, want 0 (dead host's timers discarded)", w.Active())
	}
}

func TestWheelSteadyStateDoesNotGrowEventQueue(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	w := NewTimerWheel(hosts[0], 10*time.Millisecond, 64)

	// Continuously re-arm: each firing schedules a replacement, modelling a
	// steady flow of per-request RTO timers. The simulator queue must stay
	// at one wheel event, not accumulate.
	count := 0
	var rearm func()
	rearm = func() {
		count++
		if count < 100 {
			w.Schedule(30*time.Millisecond, rearm)
		}
	}
	w.Schedule(30*time.Millisecond, rearm)
	s.RunFor(10 * time.Second)
	if count != 100 {
		t.Fatalf("fired %d, want 100", count)
	}
}

// TestWheelZeroDelayFromCallback: the slot being swept is the one a zero delay
// maps to, and a timeout armed into it mid-sweep used to wait a whole
// revolution (170 ms here) for the sweep to come round again.
func TestWheelZeroDelayFromCallback(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	w := NewTimerWheel(hosts[0], 10*time.Millisecond, 16)

	var firedAt time.Duration
	w.Schedule(10*time.Millisecond, func() {
		w.Schedule(0, func() { firedAt = s.Elapsed() })
	})
	s.RunFor(time.Second)
	if firedAt != 20*time.Millisecond {
		t.Fatalf("zero delay armed in the 10ms sweep fired at %v, want 20ms (at most one tick late)", firedAt)
	}
}

// TestWheelOwnedTimerLifecycle walks one embedded record through every state
// Stop can find it in: never armed, armed, fired, re-armed, dropped by a dead
// host's sweep.
func TestWheelOwnedTimerLifecycle(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	w := NewTimerWheel(h, 10*time.Millisecond, 16)

	var zero WheelTimer
	if zero.Stop() {
		t.Error("Stop on the zero WheelTimer reported a cancellation")
	}
	fired := 0
	var tm WheelTimer
	w.Init(&tm, runFunc(func() { fired++ }))
	if tm.Stop() {
		t.Error("Stop on a timer never armed reported a cancellation")
	}
	tm.Reset(25 * time.Millisecond)
	tm.Reset(45 * time.Millisecond) // moves the deadline; the first one must not fire
	if w.Active() != 1 {
		t.Fatalf("Active() = %d after re-arming one timer, want 1", w.Active())
	}
	s.RunFor(40 * time.Millisecond)
	if fired != 0 {
		t.Fatal("timer fired at the deadline its second Reset replaced")
	}
	s.RunFor(10 * time.Millisecond)
	if fired != 1 || tm.Stop() {
		t.Fatalf("fired %d times by 50ms (want 1); Stop after firing must report false", fired)
	}
	tm.Reset(10 * time.Millisecond)
	if !tm.Stop() || tm.Stop() {
		t.Error("Stop on an armed timer must report true once, then false")
	}
	if w.Active() != 0 {
		t.Errorf("Active() = %d with a stopped timer, want 0 at once", w.Active())
	}
	tm.Reset(10 * time.Millisecond)
	h.Crash()
	s.RunFor(50 * time.Millisecond)
	h.Restart()
	if fired != 1 || tm.Stop() || w.Active() != 0 {
		t.Errorf("after a dead host's sweep: fired=%d Active()=%d, want the timeout dropped unfired and Stop false", fired, w.Active())
	}
	tm.Reset(10 * time.Millisecond) // the record is the owner's to arm again
	s.RunFor(50 * time.Millisecond)
	if fired != 2 {
		t.Errorf("fired %d times after re-arming a dropped timer, want 2", fired)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("%d events pending with nothing armed, want 0", got)
	}
}

// TestWheelMatchesReferenceModel drives a wheel through seeded interleavings
// of Init, Reset, Stop, Schedule, host crash and restart, and RunFor, with
// callbacks that re-arm themselves, re-arm or stop another timer (often one
// due in the very sweep that is running, the sweep's next stop included) or
// schedule a new one, and holds it to the definition: a timeout armed at
// instant a for delay d is due at tick max(ceil((a+d)/tick), the first tick
// after a), and a tick fires what is due in arming order, or on a dead host
// drops it. The model is a plain list of (tick, arming order). Fire instants
// and order, every Stop result, Active(), each slot's list (links, slot,
// deadline, arming order) and the simulator's queue — one tick event while
// anything is armed, none once a tick has passed with nothing armed — must
// agree after every step.
func TestWheelMatchesReferenceModel(t *testing.T) {
	const (
		tick  = 10 * time.Millisecond
		slots = 8 // 80 ms a revolution: most delays below span several
	)
	const (
		actNone = iota
		actRearmSelf
		actRearmOther
		actStopOther
		actSchedule
		actKinds
	)
	type script struct { // what a timer's callback does, at most budget times
		kind  int
		other int
		d     time.Duration
	}
	type entry struct { // the model's record of an armed timeout
		id    int
		tick  int64
		order uint64
	}
	type logged struct { // a firing, or a Stop made by a callback and its result
		id      int
		at      time.Duration
		stop    bool
		stopped bool
	}
	type side struct { // the model or the wheel, as the scripted callbacks see it
		arm      func(id int, d time.Duration)
		stop     func(id int) bool
		schedule func(d time.Duration)
		log      []logged
		budget   []int
	}
	sameSweep := 0 // callbacks that stopped or re-armed a timeout due in the running sweep
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, _, _, hosts := lan(t, seed, 1)
		h := hosts[0]
		w := NewTimerWheel(h, tick, slots)
		// The driver acts between tick boundaries, so every instant it arms
		// at lies strictly inside a tick; callbacks arm on the boundary.
		s.RunFor(2500 * time.Microsecond)

		var (
			scripts  []script
			timers   []*WheelTimer
			idOf     = map[*WheelTimer]int{}
			entries  []entry // the model: everything armed, in no order
			order    uint64
			alive          = true
			modelNow       = s.Elapsed()
			sweeping int64 = -1 // the tick the model is firing, -1 outside a sweep
			born     []int      // ids the model's callbacks created, for the wheel's to take in turn
			model    side
			wheel    side
		)
		find := func(id int) int {
			return slices.IndexFunc(entries, func(e entry) bool { return e.id == id })
		}
		model.stop = func(id int) bool {
			i := find(id)
			if i < 0 {
				return false
			}
			if entries[i].tick == sweeping {
				sameSweep++
			}
			entries = slices.Delete(entries, i, i+1)
			return true
		}
		model.arm = func(id int, d time.Duration) {
			model.stop(id)
			due := (max(modelNow+d, 0) + tick - 1) / tick
			entries = append(entries, entry{id: id, tick: max(int64(due), int64(modelNow/tick)+1), order: order})
			order++
		}
		newTimer := func(sc script) int {
			scripts = append(scripts, sc)
			timers = append(timers, nil)
			model.budget = append(model.budget, 3)
			wheel.budget = append(wheel.budget, 3)
			return len(scripts) - 1
		}
		model.schedule = func(d time.Duration) {
			id := newTimer(script{})
			born = append(born, id)
			model.arm(id, d)
		}
		act := func(sd *side, id int) {
			sc := scripts[id]
			if sc.kind == actNone || sd.budget[id] == 0 {
				return
			}
			sd.budget[id]--
			switch sc.kind {
			case actRearmSelf:
				sd.arm(id, sc.d)
			case actRearmOther:
				sd.arm(sc.other, sc.d)
			case actStopOther:
				sd.log = append(sd.log, logged{id: sc.other, stop: true, stopped: sd.stop(sc.other)})
			case actSchedule:
				sd.schedule(sc.d)
			}
		}
		fire := func(id int) func() {
			return func() {
				wheel.log = append(wheel.log, logged{id: id, at: s.Elapsed()})
				act(&wheel, id)
			}
		}
		wheel.arm = func(id int, d time.Duration) { timers[id].Reset(d) }
		wheel.stop = func(id int) bool { return timers[id].Stop() }
		wheel.schedule = func(d time.Duration) {
			if len(born) == 0 {
				t.Fatalf("seed %d: a callback scheduled a timeout the model's run did not", seed)
			}
			id := born[0]
			born = born[1:]
			timers[id] = w.Schedule(d, fire(id))
			idOf[timers[id]] = id
		}
		// runModel advances the model to instant `to`, tick by tick.
		runModel := func(to time.Duration) {
			for k := int64(modelNow/tick) + 1; time.Duration(k)*tick <= to; k++ {
				modelNow, sweeping = time.Duration(k)*tick, k
				var due []entry
				for _, e := range entries {
					if e.tick == k {
						due = append(due, e)
					}
				}
				slices.SortFunc(due, func(a, b entry) int { return cmp.Compare(a.order, b.order) })
				for _, e := range due {
					i := slices.Index(entries, e)
					if i < 0 {
						continue // an earlier callback of this sweep stopped or re-armed it
					}
					entries = slices.Delete(entries, i, i+1)
					if alive {
						model.log = append(model.log, logged{id: e.id, at: modelNow})
						act(&model, e.id)
					}
				}
			}
			modelNow, sweeping = to, -1
		}
		check := func(op int, what string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d op %d (%s): %s", seed, op, what, fmt.Sprintf(format, args...))
			}
			if !slices.Equal(wheel.log, model.log) {
				fail("fired and stopped\n%+v\nthe model says\n%+v", wheel.log, model.log)
			}
			if len(born) != 0 {
				fail("the model's callbacks scheduled %d timeouts the wheel's did not", len(born))
			}
			if w.Active() != len(entries) {
				fail("Active() = %d, model has %d armed", w.Active(), len(entries))
			}
			if w.next != nil {
				fail("the sweep left its cursor behind")
			}
			linked := 0
			for i := range w.slots {
				head := &w.slots[i]
				var last *entry
				for x := head.next; ; x = x.next {
					if x.next == nil || x.prev == nil || x.next.prev != x || x.prev.next != x {
						fail("slot %d: broken link at %p", i, x)
					}
					if x == head {
						break
					}
					id, ok := idOf[x]
					at := find(id)
					if linked++; !ok || at < 0 || linked > len(entries) {
						fail("slot %d holds a record the model does not have armed (timer %d)", i, id)
					}
					e := &entries[at]
					if x.deadline != e.tick || int(e.tick%slots) != i {
						fail("timer %d in slot %d with deadline %d, model says tick %d", id, i, x.deadline, e.tick)
					}
					if last != nil && e.order < last.order {
						fail("slot %d: timer %d armed before timer %d but linked behind it", i, id, last.id)
					}
					last = e
				}
			}
			if linked != len(entries) {
				fail("%d records linked, model has %d armed", linked, len(entries))
			}
			for id, tm := range timers {
				if find(id) < 0 && (tm.next != nil || tm.prev != nil) {
					fail("timer %d is not armed but still points into a list", id)
				}
			}
			if got := s.Pending(); got > 1 || len(entries) > 0 && got != 1 {
				fail("%d simulator events pending with %d armed, want the one tick", got, len(entries))
			}
		}
		// create makes timer id real: an owned record, unarmed.
		create := func(sc script) int {
			id := newTimer(sc)
			timers[id] = new(WheelTimer)
			w.Init(timers[id], runFunc(fire(id)))
			idOf[timers[id]] = id
			return id
		}
		delay := func() time.Duration { return time.Duration(rng.Intn(50)-2) * 5 * time.Millisecond }
		randomScript := func() script {
			sc := script{kind: rng.Intn(actKinds), d: delay()}
			if len(timers) > 0 {
				sc.other = rng.Intn(len(timers))
			} else if sc.kind == actRearmOther || sc.kind == actStopOther {
				sc.kind = actNone
			}
			return sc
		}
		armBoth := func(id int, d time.Duration) {
			model.arm(id, d)
			wheel.arm(id, d)
		}
		for op := 0; op < 400; op++ {
			what := ""
			switch k := rng.Intn(20); {
			case k < 1:
				what = "Init"
				create(randomScript())
			case k < 4:
				what = "Init+Reset"
				armBoth(create(randomScript()), delay())
			case k < 6:
				// Two timeouts due at the same tick, linked one behind the
				// other, the first acting on the second when it fires.
				what = "pair"
				d := delay()
				second := create(randomScript())
				first := create(script{kind: actRearmOther + rng.Intn(2), other: second, d: delay()})
				armBoth(first, d)
				armBoth(second, d)
			case k < 8:
				what = "Schedule"
				d := delay()
				id := newTimer(randomScript())
				timers[id] = w.Schedule(d, fire(id))
				idOf[timers[id]] = id
				model.arm(id, d)
			case k < 11 && len(timers) > 0:
				what = "Reset"
				armBoth(rng.Intn(len(timers)), delay())
			case k < 14 && len(timers) > 0:
				what = "Stop"
				id := rng.Intn(len(timers))
				if got, want := wheel.stop(id), model.stop(id); got != want {
					t.Fatalf("seed %d op %d: Stop(%d) = %v, model says %v", seed, op, id, got, want)
				}
			case k < 15:
				what = "crash/restart"
				if alive = !alive; alive {
					h.Restart()
				} else {
					h.Crash()
				}
			default:
				what = "RunFor"
				d := time.Duration(rng.Intn(12)) * 5 * time.Millisecond
				runModel(modelNow + d)
				s.RunFor(d)
				if len(entries) == 0 && d >= tick && s.Pending() != 0 {
					t.Fatalf("seed %d op %d: %d events pending a tick after the last timeout went, want 0", seed, op, s.Pending())
				}
			}
			if modelNow != s.Elapsed() {
				t.Fatalf("seed %d op %d: the model is at %v, the simulator at %v", seed, op, modelNow, s.Elapsed())
			}
			check(op, what)
		}
		for id := range timers {
			wheel.stop(id)
		}
		s.RunFor(tick)
		if w.Active() != 0 || s.Pending() != 0 {
			t.Fatalf("seed %d: Active() = %d and %d events pending with every timer stopped", seed, w.Active(), s.Pending())
		}
	}
	if sameSweep < 100 {
		t.Errorf("callbacks stopped or re-armed a timeout of the running sweep %d times over all seeds; the recipe no longer reaches that case", sameSweep)
	}
}

// BenchmarkWheelArmCancel is the two things flow does with a retransmission
// timeout, over an owned record: arm it and cancel it when the response
// arrives (nearly every request), or arm it and let it fire.
func BenchmarkWheelArmCancel(b *testing.B) {
	const tick = time.Millisecond
	s, _, _, hosts := lan(b, 1, 1)
	w := NewTimerWheel(hosts[0], tick, 256)
	fired := 0
	var tm, standing WheelTimer
	w.Init(&tm, runFunc(func() { fired++ }))
	w.Init(&standing, runFunc(func() {}))
	tm.Reset(tick)
	s.RunFor(2 * tick) // the simulator's record for the tick event exists
	b.Run("cancel", func(b *testing.B) {
		standing.Reset(time.Hour) // another request in flight: the wheel stays awake
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm.Reset(8 * tick)
			tm.Stop()
		}
		standing.Stop()
	})
	b.Run("fire", func(b *testing.B) {
		fired = 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tm.Reset(tick)
			s.RunFor(2 * tick)
		}
		if fired != b.N {
			b.Fatalf("fired %d of %d", fired, b.N)
		}
	})
}

// TestWheelOwnedTimerDoesNotAllocate pins what BenchmarkWheelArmCancel
// reports: an owned timeout is armed, cancelled and fired at no allocation.
func TestWheelOwnedTimerDoesNotAllocate(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	w := NewTimerWheel(hosts[0], time.Millisecond, 256)
	var tm WheelTimer
	w.Init(&tm, runFunc(func() {}))
	tm.Reset(time.Millisecond)
	s.RunFor(time.Second) // the simulator's record for the tick event exists
	if avg := testing.AllocsPerRun(100, func() {
		tm.Reset(8 * time.Millisecond)
		tm.Stop()
		tm.Reset(time.Millisecond)
		s.RunFor(2 * time.Millisecond)
	}); avg != 0 {
		t.Errorf("arm + cancel + arm + fire allocates %.2f, want 0", avg)
	}
}

// TestSendUDPOwnedRoundTrip exercises the pooled fast path end to end,
// including reuse of the same packet and buffer records across sends.
func TestSendUDPOwnedRoundTrip(t *testing.T) {
	s, nw, _, hosts := lan(t, 1, 2)
	a, b := hosts[0], hosts[1]
	var got []string
	if _, err := b.BindUDP(netip.Addr{}, 9000, func(src, dst netip.AddrPort, payload []byte) {
		got = append(got, string(payload)) // copies before the buffer is recycled
	}); err != nil {
		t.Fatal(err)
	}
	dst := netip.AddrPortFrom(addr("10.0.0.2"), 9000)
	for i := 0; i < 3; i++ {
		buf := nw.GetBuf(5)
		copy(buf, "msg-")
		buf[4] = byte('0' + i)
		if err := a.SendUDPOwned(netip.AddrPort{}, dst, buf); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	if len(got) != 3 || got[0] != "msg-0" || got[2] != "msg-2" {
		t.Fatalf("got %v, want [msg-0 msg-1 msg-2]", got)
	}
	// After the third round trip both pools should have their records back.
	if n := nw.PacketsOutstanding(); n != 0 {
		t.Errorf("%d packet records not back in the pool after deliveries", n)
	}
	if len(nw.freeBufs) == 0 {
		t.Error("buffer pool empty after deliveries; payload buffers not recycled")
	}
}

func TestSendUDPOwnedThroughRouter(t *testing.T) {
	s := sim.New(1)
	nw := New(s)
	left := nw.NewSegment("left", DefaultSegmentConfig())
	right := nw.NewSegment("right", DefaultSegmentConfig())

	r := nw.NewHost("router")
	r.EnableForwarding()
	rl := r.AttachNIC(left, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	_ = rl
	r.AttachNIC(right, "eth1", netip.MustParsePrefix("10.0.1.1/24"))

	a := nw.NewHost("a")
	an := a.AttachNIC(left, "eth0", netip.MustParsePrefix("10.0.0.2/24"))
	a.SetDefaultGateway(an, addr("10.0.0.1"))
	b := nw.NewHost("b")
	bn := b.AttachNIC(right, "eth0", netip.MustParsePrefix("10.0.1.2/24"))
	b.SetDefaultGateway(bn, addr("10.0.1.1"))

	var got string
	if _, err := b.BindUDP(netip.Addr{}, 9000, func(_, _ netip.AddrPort, payload []byte) {
		got = string(payload)
	}); err != nil {
		t.Fatal(err)
	}
	buf := nw.GetBuf(7)
	copy(buf, "via-rtr")
	if err := a.SendUDPOwned(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.1.2"), 9000), buf); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got != "via-rtr" {
		t.Fatalf("payload = %q, want via-rtr", got)
	}
	if n := nw.PacketsOutstanding(); n != 0 {
		t.Errorf("%d packet records not recycled after forwarding hop", n)
	}
}
