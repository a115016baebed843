package gcs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"wackamole/internal/health"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
	"wackamole/internal/wire"
)

// The failure-free path allocates nothing: a daemon pays for membership when
// membership changes. These pins hold that without the benchmark module.

// TestIdleTokenPassDoesNotAllocate runs a settled 12-daemon ring one
// tokenInterval — one token pass: receive, decode, re-arm the forward timer,
// encode, send — at a time. The heartbeat broadcasts in the window (twelve
// every 400 passes, a few objects each on the simulated LAN's shared-datagram
// path) vanish in AllocsPerRun's integer average; one object per pass would
// not.
func TestIdleTokenPassDoesNotAllocate(t *testing.T) {
	s, daemons, _ := wbCluster(t, 12, 12, TunedConfig())
	s.RunFor(5 * time.Second)
	for _, d := range daemons {
		if d.state != stOperational || len(d.ring.members) != 12 {
			t.Fatalf("%s: state %v with %d members, want a settled ring of 12", d.id, d.state, len(d.ring.members))
		}
	}
	before := daemons[0].Stats().TokensForwarded
	if avg := testing.AllocsPerRun(2000, func() { s.RunFor(tokenInterval) }); avg != 0 {
		t.Fatalf("an idle token pass allocates %.0f, want 0", avg)
	}
	if passes := daemons[0].Stats().TokensForwarded - before; passes < 100 {
		t.Fatalf("daemon 0 forwarded %d tokens in 2000 intervals on a ring of 12; the ring is not rotating", passes)
	}
}

// TestHeartbeatReceiveDoesNotAllocate hands a daemon a ring member's
// heartbeat: two interned IDs, a value-typed source address and a re-armed
// fault timer.
func TestHeartbeatReceiveDoesNotAllocate(t *testing.T) {
	s, daemons, _ := wbCluster(t, 3, 3, TunedConfig())
	s.RunFor(5 * time.Second)
	d, peer := daemons[0], daemons[1].id
	hb := aliveMsg{Ring: d.ring.id, Sender: peer}.encode(new(wire.Writer))
	if avg := testing.AllocsPerRun(1000, func() { d.onPacket(addrOf(peer), hb) }); avg != 0 {
		t.Fatalf("a heartbeat receive allocates %.0f, want 0", avg)
	}
	if d.state != stOperational {
		t.Fatalf("state %v after heartbeats from a ring member", d.state)
	}
}

// TestHealthScanDoesNotAllocate runs one tick of the health scan on a settled
// ring whose daemons carry an instrumented monitor under the fixed detector:
// every member's phi evaluated in place, nothing built.
func TestHealthScanDoesNotAllocate(t *testing.T) {
	s, daemons, _ := wbCluster(t, 3, 3, TunedConfig())
	reg, tr := metrics.New(), obs.New(0, nil)
	for _, d := range daemons {
		d.SetHealth(health.NewMonitor(health.Options{Node: string(d.id), Metrics: reg, Tracer: tr}))
	}
	s.RunFor(5 * time.Second)
	d := daemons[0]
	if d.state != stOperational || len(d.ring.members) != 3 {
		t.Fatalf("state %v with %d members, want a settled ring of 3", d.state, len(d.ring.members))
	}
	if avg := testing.AllocsPerRun(1000, d.phiScan); avg != 0 {
		t.Fatalf("a health scan tick allocates %.0f, want 0", avg)
	}
	if d.state != stOperational {
		t.Fatalf("state %v after scanning a live ring", d.state)
	}
}

// TestGroupCastDeliveryDoesNotCopy pins what a group cast costs the daemon
// that receives it on a settled ring: the stored record and its payload —
// kept for retransmission — and nothing more; the hand-over to the session
// decodes in place and lends the handler the stored bytes.
func TestGroupCastDeliveryDoesNotCopy(t *testing.T) {
	s, daemons, _ := wbCluster(t, 7, 3, TunedConfig())
	d, peer := daemons[0], daemons[1].id
	sess, err := d.Connect("wackd")
	if err != nil {
		t.Fatal(err)
	}
	delivered, body := 0, []byte("state of the world")
	sess.SetMessageHandler(func(from GroupMember, group string, payload []byte) {
		if from.Daemon == peer && from.Client == "wackd" && group == "wackamole" && bytes.Equal(payload, body) {
			delivered++
		}
	})
	if err := sess.Join("wackamole"); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * time.Second)
	if d.state != stOperational || !sess.joined["wackamole"] {
		t.Fatalf("state %v, joined %v: the ring did not settle", d.state, sess.joined["wackamole"])
	}

	// The casts arrive as datagrams from a ring member, one sequence number
	// after the other; they are encoded ahead so that only their reception is
	// measured.
	const runs = 500
	cast := appendGroupCast(nil, "wackd", "wackamole", body)
	packets := make([][]byte, runs+1) // AllocsPerRun calls once more, to warm up
	for i := range packets {
		m := dataMsg{Ring: d.ring.id, Seq: d.highSeq + 1 + uint64(i), Origin: peer, Kind: dkGroupCast, Payload: cast}
		packets[i] = bytes.Clone(m.encode(new(wire.Writer)))
	}
	next := 0
	if avg := testing.AllocsPerRun(runs, func() {
		d.onPacket(addrOf(peer), packets[next])
		next++
	}); avg > 2 {
		t.Fatalf("receiving a group cast allocates %.0f, want the record and its payload", avg)
	}
	if delivered != runs+1 {
		t.Fatalf("%d of %d casts reached the handler intact", delivered, runs+1)
	}
	stored := d.store[d.highSeq]
	if avg := testing.AllocsPerRun(runs, func() { d.groups.deliverCast(stored) }); avg != 0 {
		t.Fatalf("handing a stored cast to its session allocates %.0f, want 0", avg)
	}
	// A cast this daemon already holds — its own looping back, a
	// retransmission — is dropped before anything is copied.
	if avg := testing.AllocsPerRun(runs, func() { d.onPacket(addrOf(peer), packets[0]) }); avg != 0 {
		t.Fatalf("receiving a duplicate allocates %.0f, want 0", avg)
	}
}

// TestReconfigurationReusesStoredRecords pins the free list: once a daemon
// has installed a ring, the messages a membership change stores and sends —
// groups-state, group ops — go into records and payload buffers it already
// holds. After one warm-up cycle, a fail → install → restore → install cycle
// on a 5-daemon ring leaves every daemon holding the very records it held
// before, each with the buffer it had: no record and no payload was allocated
// for any message the cycle stored.
func TestReconfigurationReusesStoredRecords(t *testing.T) {
	s, daemons, hosts := wbCluster(t, 12, 5, TunedConfig())
	for _, d := range daemons {
		sess, err := d.Connect("w")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Join("wack"); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(5 * time.Second)
	nic := hosts[4].NICs()[0]
	cycle := func() {
		nic.SetUp(false)
		s.RunFor(5 * time.Second)
		for _, d := range daemons[:4] {
			if d.state != stOperational || len(d.ring.members) != 4 {
				t.Fatalf("%s: state %v with %d members, want the ring of 4", d.id, d.state, len(d.ring.members))
			}
		}
		nic.SetUp(true)
		s.RunFor(5 * time.Second)
		for _, d := range daemons {
			if d.state != stOperational || len(d.ring.members) != 5 {
				t.Fatalf("%s: state %v with %d members, want the ring of 5", d.id, d.state, len(d.ring.members))
			}
		}
	}
	cycle() // the free lists fill
	held := make([]map[*dataMsg]*byte, len(daemons))
	stored := make([]uint64, len(daemons))
	for i, d := range daemons {
		held[i], stored[i] = records(d), d.Stats().DataDelivered
	}
	cycle()
	for i, d := range daemons {
		if n := d.Stats().DataDelivered - stored[i]; n < 5 {
			t.Fatalf("%s stored %d messages over the cycle, want at least a groups-state per member", d.id, n)
		}
		for m, buf := range records(d) {
			was, ok := held[i][m]
			if !ok {
				t.Fatalf("%s holds a record it did not have before the cycle", d.id)
			}
			if buf != was {
				t.Fatalf("%s: a record's payload buffer was replaced during the cycle", d.id)
			}
		}
	}
}

// records maps every stored-message record d holds — in the store, on the
// send queue, on the free list — to its payload buffer's storage.
func records(d *Daemon) map[*dataMsg]*byte {
	out := map[*dataMsg]*byte{}
	add := func(m *dataMsg) { out[m] = unsafe.SliceData(m.Payload[:cap(m.Payload)]) }
	for _, m := range d.store {
		add(m)
	}
	for _, m := range d.sendQueue {
		add(m)
	}
	for _, m := range d.free {
		add(m)
	}
	return out
}

// TestJoinDuringGatherDoesNotAllocate hands a gathering daemon the JOIN it
// sees most often: a peer in the same round that has heard of the same
// daemons. The Seen list decodes into the daemon's one scratch list.
func TestJoinDuringGatherDoesNotAllocate(t *testing.T) {
	s, daemons, _ := wbCluster(t, 8, 3, TunedConfig())
	s.RunFor(5 * time.Second)
	d, peer := daemons[0], daemons[1].id
	d.enterGather("test", 0)
	seen := []DaemonID{daemons[0].id, daemons[1].id, daemons[2].id}
	join := bytes.Clone(joinMsg{Sender: peer, Round: d.round, Seen: seen}.encode(new(wire.Writer)))
	if avg := testing.AllocsPerRun(1000, func() { d.onPacket(addrOf(peer), join) }); avg != 0 {
		t.Fatalf("a JOIN received during gather allocates %.0f, want 0", avg)
	}
	if d.state != stGather || !slices.Equal(d.gathered, seen) {
		t.Fatalf("state %v, gathered %v, want gather with %v", d.state, d.gathered, seen)
	}
}

// TestInternTableIsBounded floods a daemon with datagrams naming 20 000
// distinct daemons, and its group layer with casts naming 20 000 distinct
// clients and groups. Neither table outgrows its cap, the ring is unharmed,
// ring members resolve — and intern again — as before, and a cast still
// crosses the ring.
func TestInternTableIsBounded(t *testing.T) {
	s, daemons, _ := wbCluster(t, 5, 3, TunedConfig())
	s.RunFor(5 * time.Second)
	d, peer := daemons[0], daemons[1].id
	var w wire.Writer
	for i := 0; i < 10000; i++ {
		stranger := DaemonID(fmt.Sprintf("192.168.%d.%d:4803", i/250, i%250))
		ring := RingID{Coord: DaemonID(fmt.Sprintf("172.16.%d.%d:4803", i/250, i%250)), Epoch: 1}
		d.onPacket(addrOf(stranger), leaveMsg{Ring: ring, Sender: stranger}.encode(&w))
		if len(d.ids) > maxInterned {
			t.Fatalf("ID table holds %d entries after %d strangers, cap is %d", len(d.ids), i+1, maxInterned)
		}
	}
	if d.state != stOperational || len(d.ring.members) != 3 {
		t.Fatalf("state %v with %d members after the flood", d.state, len(d.ring.members))
	}
	hb := aliveMsg{Ring: d.ring.id, Sender: peer}.encode(&w)
	m, err := d.ids.decodeAlive(readBody(t, hb))
	if err != nil || m.Sender != peer || !d.ring.contains(m.Sender) || m.Ring != d.ring.id {
		t.Fatalf("heartbeat decodes to %+v (%v) after the flood, want sender %s on ring %s", m, err, peer, d.ring.id)
	}
	if avg := testing.AllocsPerRun(100, func() { d.onPacket(addrOf(peer), hb) }); avg != 0 {
		t.Fatalf("a heartbeat receive allocates %.0f after the flood, want 0", avg)
	}

	for i := 0; i < 10000; i++ {
		cast := appendGroupCast(nil, fmt.Sprintf("client-%d", i), fmt.Sprintf("group-%d", i), nil)
		d.groups.deliverCast(&dataMsg{Origin: peer, Kind: dkGroupCast, Payload: cast})
		if len(d.groups.names) > maxInterned {
			t.Fatalf("name table holds %d entries after %d casts, cap is %d", len(d.groups.names), i+1, maxInterned)
		}
	}
	// A name no Connect or Join admits is decoded but not kept.
	long := strings.Repeat("n", maxNameLen+1)
	before := len(d.groups.names)
	if c, g, _, err := d.groups.names.decodeGroupCast(appendGroupCast(nil, long, "g", nil)); err != nil || c != long || g != "g" {
		t.Fatalf("over-long client name decodes to %d bytes, %q, %v", len(c), g, err)
	}
	if grew := len(d.groups.names) - before; grew != 1 {
		t.Fatalf("the name table grew by %d entries, want 1: the group, not the over-long client", grew)
	}
	var got []string
	for i, dd := range daemons {
		sess, err := dd.Connect("w")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			sess.SetMessageHandler(func(from GroupMember, group string, payload []byte) {
				got = append(got, from.String()+" "+group+" "+string(payload))
			})
		}
		if err := sess.Join("g"); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			s.RunFor(time.Second)
			if err := sess.Multicast("g", []byte("after the flood")); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.RunFor(3 * time.Second)
	if want := string(peer) + "/w g after the flood"; len(got) != 1 || got[0] != want {
		t.Fatalf("after the flood the handler saw %q, want one %q", got, want)
	}
}

// TestOverLongNamesAreRejected: a client or group name over maxNameLen is an
// error wherever it enters the daemon. Before the bound, a pair of names that
// outgrew the headroom maxPayload leaves made the data message's 16-bit
// length prefix panic when the token arrived.
func TestOverLongNamesAreRejected(t *testing.T) {
	_, daemons, _ := wbCluster(t, 9, 1, TunedConfig())
	d := daemons[0]
	long := strings.Repeat("x", maxNameLen+1)
	if _, err := d.Connect(long); !errors.Is(err, errNameTooLong) {
		t.Fatalf("Connect with a %d-byte name: %v, want errNameTooLong", len(long), err)
	}
	sess, err := d.Connect(long[1:])
	if err != nil {
		t.Fatalf("Connect with a %d-byte name: %v", maxNameLen, err)
	}
	for op, err := range map[string]error{
		"Join":      sess.Join(long),
		"Multicast": sess.Multicast(long, nil),
	} {
		if !errors.Is(err, errNameTooLong) {
			t.Errorf("%s with a %d-byte group: %v, want errNameTooLong", op, len(long), err)
		}
	}
	if len(d.sendQueue) != 0 {
		t.Fatalf("%d rejected operations were queued", len(d.sendQueue))
	}
}

// TestLargestAdmittedMessageCrossesTheRing sends what the bounds add up to —
// the longest client name, the longest group name, a maxPayload body — from
// one daemon to another.
func TestLargestAdmittedMessageCrossesTheRing(t *testing.T) {
	s, daemons, _ := wbCluster(t, 10, 2, TunedConfig())
	client, group := strings.Repeat("c", maxNameLen), strings.Repeat("g", maxNameLen)
	body := bytes.Repeat([]byte{0xA5}, maxPayload)
	var sessions []*Session
	got := 0
	for _, d := range daemons {
		sess, err := d.Connect(client)
		if err != nil {
			t.Fatal(err)
		}
		sess.SetMessageHandler(func(from GroupMember, g string, payload []byte) {
			if from == (GroupMember{Daemon: daemons[0].id, Client: client}) && g == group && bytes.Equal(payload, body) {
				got++
			}
		})
		if err := sess.Join(group); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	s.RunFor(5 * time.Second)
	if err := sessions[0].Multicast(group, body); err != nil {
		t.Fatal(err)
	}
	s.RunFor(3 * time.Second)
	if got != 2 {
		t.Fatalf("the largest admitted message reached %d of 2 members intact", got)
	}
}

// TestForgedListCountsAreRejectedCheaply is the count bomb for the two list
// decoders of this package: a JOIN and a groups-state a few bytes long whose
// counts say 65 535.
func TestForgedListCountsAreRejectedCheaply(t *testing.T) {
	join := joinMsg{Sender: "10.0.0.1:4803", Round: 1}.encode(new(wire.Writer))
	join[len(join)-2], join[len(join)-1] = 0xff, 0xff
	for name, reject := range map[string]func() error{
		"JOIN": func() error {
			_, err := idTable{}.decodeJoin(readBody(t, join), nil)
			return err
		},
		"groups-state": func() error {
			_, err := idTable{}.decodeGroupsState([]byte{0xff, 0xff}, nil)
			return err
		},
		"groups-state inner list": func() error {
			_, err := idTable{}.decodeGroupsState([]byte{0, 1, 0, 1, 'w', 0xff, 0xff}, nil)
			return err
		},
	} {
		var err error
		if n := allocatedBy(func() { err = reject() }); n > 4<<10 {
			t.Errorf("%s: rejecting a forged count allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s: forged count accepted", name)
		}
	}
}

// allocatedBy reports the bytes f allocates: the least of five runs, because
// TotalAlloc is the whole process's and the runtime's own goroutines only
// ever add to it.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// readBody returns a reader positioned after payload's header.
func readBody(t *testing.T, payload []byte) *wire.Reader {
	t.Helper()
	r := wire.NewReader(payload)
	if _, err := readHeader(r); err != nil {
		t.Fatal(err)
	}
	return r
}
