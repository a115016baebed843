package gcs

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"wackamole/internal/wire"
)

func TestAliveRoundTrip(t *testing.T) {
	in := aliveMsg{Ring: RingID{Coord: "10.0.0.1:4803", Epoch: 7}, Sender: "10.0.0.2:4803"}
	r := wire.NewReader(in.encode(new(wire.Writer)))
	typ, err := readHeader(r)
	if err != nil || typ != mtAlive {
		t.Fatalf("header: %v %v", typ, err)
	}
	out, err := idTable{}.decodeAlive(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ring != in.Ring || out.Sender != in.Sender {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	in := joinMsg{Sender: "a:1", Round: 42, Seen: []DaemonID{"a:1", "b:1", "c:1"}}
	r := wire.NewReader(in.encode(new(wire.Writer)))
	typ, err := readHeader(r)
	if err != nil || typ != mtJoin {
		t.Fatalf("header: %v %v", typ, err)
	}
	out, err := idTable{}.decodeJoin(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sender != in.Sender || out.Round != in.Round || !slices.Equal(out.Seen, in.Seen) {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

func TestFormRoundTrip(t *testing.T) {
	in := formMsg{Round: 3, Ring: RingID{Coord: "a:1", Epoch: 9}, Members: []DaemonID{"a:1", "b:1"}}
	r := wire.NewReader(in.encode(new(wire.Writer)))
	if typ, err := readHeader(r); err != nil || typ != mtForm {
		t.Fatalf("header: %v %v", typ, err)
	}
	out, err := idTable{}.decodeForm(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Round != in.Round || out.Ring != in.Ring || !slices.Equal(out.Members, in.Members) {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

func TestTokenRoundTrip(t *testing.T) {
	in := tokenMsg{Ring: RingID{Coord: "a:1", Epoch: 2}, TokenSeq: 100, Seq: 55, Rtr: []uint64{3, 9, 12}}
	r := wire.NewReader(in.encode(new(wire.Writer)))
	if typ, err := readHeader(r); err != nil || typ != mtToken {
		t.Fatalf("header: %v %v", typ, err)
	}
	out, err := idTable{}.decodeToken(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ring != in.Ring || out.TokenSeq != in.TokenSeq || out.Seq != in.Seq || len(out.Rtr) != 3 {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

func TestDataRoundTrip(t *testing.T) {
	in := dataMsg{
		Ring:    RingID{Coord: "a:1", Epoch: 4},
		Seq:     19,
		Origin:  "b:1",
		Kind:    dkGroupCast,
		Payload: []byte("hello wackamole"),
	}
	r := wire.NewReader(in.encode(new(wire.Writer)))
	if typ, err := readHeader(r); err != nil || typ != mtData {
		t.Fatalf("header: %v %v", typ, err)
	}
	out, err := idTable{}.decodeData(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ring != in.Ring || out.Seq != in.Seq || out.Origin != in.Origin || out.Kind != in.Kind || string(out.Payload) != string(in.Payload) {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

func TestRecoveryMessagesRoundTrip(t *testing.T) {
	st := recoverStateMsg{
		Ring:    RingID{Coord: "a:1", Epoch: 5},
		Sender:  "b:1",
		OldRing: RingID{Coord: "a:1", Epoch: 4},
		OldHigh: 77,
		Missing: []uint64{5, 6},
	}
	r := wire.NewReader(st.encode(new(wire.Writer)))
	if typ, err := readHeader(r); err != nil || typ != mtRecoverState {
		t.Fatalf("header: %v %v", typ, err)
	}
	stOut, err := idTable{}.decodeRecoverState(r)
	if err != nil {
		t.Fatal(err)
	}
	if stOut.Ring != st.Ring || stOut.OldRing != st.OldRing || stOut.OldHigh != st.OldHigh || len(stOut.Missing) != 2 {
		t.Fatalf("round trip %+v != %+v", stOut, st)
	}

	rd := recoverDataMsg{
		Ring:    RingID{Coord: "a:1", Epoch: 5},
		OldRing: RingID{Coord: "a:1", Epoch: 4},
		Msg:     dataMsg{Ring: RingID{Coord: "a:1", Epoch: 4}, Seq: 6, Origin: "c:1", Kind: dkGroupJoin, Payload: []byte("x")},
	}
	r = wire.NewReader(rd.encode(new(wire.Writer)))
	if typ, err := readHeader(r); err != nil || typ != mtRecoverData {
		t.Fatalf("header: %v %v", typ, err)
	}
	rdOut, err := idTable{}.decodeRecoverData(r)
	if err != nil {
		t.Fatal(err)
	}
	if rdOut.Msg.Seq != 6 || rdOut.Msg.Origin != "c:1" {
		t.Fatalf("round trip %+v", rdOut)
	}

	dn := recoverDoneMsg{Ring: RingID{Coord: "a:1", Epoch: 5}, Sender: "b:1"}
	r = wire.NewReader(dn.encode(new(wire.Writer)))
	if typ, err := readHeader(r); err != nil || typ != mtRecoverDone {
		t.Fatalf("header: %v %v", typ, err)
	}
	dnOut, err := idTable{}.decodeRecoverDone(r)
	if err != nil || dnOut != dn {
		t.Fatalf("round trip %+v err=%v", dnOut, err)
	}
}

func TestHeaderRejections(t *testing.T) {
	if _, err := readHeader(wire.NewReader([]byte{'X', 'G', 1, 1})); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := readHeader(wire.NewReader([]byte{'W', 'G', 99, 1})); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := readHeader(wire.NewReader([]byte{'W'})); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestGroupPayloadCodecs(t *testing.T) {
	entries := []stateEntry{{client: "w", groups: []string{"a", "b"}}, {client: "x", groups: nil}}
	names := idTable{}
	out, err := names.decodeGroupsState(appendGroupsState(nil, entries), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []membership{{"w", "a"}, {"w", "b"}}; !slices.Equal(out, want) {
		t.Fatalf("groups state round trip: %+v, want %+v", out, want)
	}

	c, g, err := names.decodeGroupOp(appendGroupOp(nil, "client", "group"))
	if err != nil || c != "client" || g != "group" {
		t.Fatalf("group op round trip: %q %q %v", c, g, err)
	}

	c, g, body, err := names.decodeGroupCast(appendGroupCast(nil, "client", "group", []byte("payload")))
	if err != nil || c != "client" || g != "group" || string(body) != "payload" {
		t.Fatalf("group cast round trip: %q %q %q %v", c, g, body, err)
	}
}

func TestIDTypes(t *testing.T) {
	ring := RingID{Coord: "a:1", Epoch: 3}
	if ring.String() != "a:1/3" {
		t.Fatalf("RingID.String = %q", ring.String())
	}
	if ring.isZero() || !(RingID{}).isZero() {
		t.Fatal("RingID.isZero wrong")
	}
	view := ViewID{Ring: ring, Seq: 9}
	if view.String() != "a:1/3:9" {
		t.Fatalf("ViewID.String = %q", view.String())
	}
	m := GroupMember{Daemon: "a:1", Client: "w"}
	if m.String() != "a:1/w" {
		t.Fatalf("GroupMember.String = %q", m.String())
	}
	if !m.less(GroupMember{Daemon: "b:1", Client: "a"}) {
		t.Fatal("Less by daemon failed")
	}
	if !m.less(GroupMember{Daemon: "a:1", Client: "x"}) {
		t.Fatal("Less by client failed")
	}
}

func TestStateStrings(t *testing.T) {
	for want, s := range map[string]daemonState{
		"gather": stGather, "commit-wait": stCommitWait, "recover": stRecover, "operational": stOperational,
	} {
		if s.String() != want {
			t.Fatalf("%v.String() = %q", s, s.String())
		}
	}
	if daemonState(99).String() == "" {
		t.Fatal("unknown state empty")
	}
}

// TestDecodersNeverPanic feeds random bytes to the full decoder dispatch.
func TestDecodersNeverPanic(t *testing.T) {
	prop := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := wire.NewReader(b)
		typ, err := readHeader(r)
		if err != nil {
			return true
		}
		switch typ {
		case mtAlive:
			_, _ = idTable{}.decodeAlive(r)
		case mtJoin:
			_, _ = idTable{}.decodeJoin(r, nil)
		case mtForm:
			_, _ = idTable{}.decodeForm(r)
		case mtToken:
			_, _ = idTable{}.decodeToken(r)
		case mtData:
			_, _ = idTable{}.decodeData(r)
		case mtRecoverState:
			_, _ = idTable{}.decodeRecoverState(r)
		case mtRecoverData:
			_, _ = idTable{}.decodeRecoverData(r)
		case mtRecoverDone:
			_, _ = idTable{}.decodeRecoverDone(r)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
