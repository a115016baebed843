package gcs

import (
	"testing"

	"wackamole/internal/wire"
)

// FuzzPacketDecode throws arbitrary bytes at the daemon's wire decoders;
// none may panic, whatever the input, and the ID table they all intern into
// — one for the whole run, as a daemon has one for its whole life — never
// outgrows its cap. The seed corpus covers every message type with valid
// encodings, so mutations explore the interesting structure.
func FuzzPacketDecode(f *testing.F) {
	ring := RingID{Coord: "10.0.0.1:4803", Epoch: 3}
	f.Add(aliveMsg{Ring: ring, Sender: "10.0.0.2:4803"}.encode(new(wire.Writer)))
	f.Add(leaveMsg{Ring: ring, Sender: "10.0.0.2:4803"}.encode(new(wire.Writer)))
	f.Add(joinMsg{Sender: "a:1", Round: 9, Seen: []DaemonID{"a:1", "b:1"}}.encode(new(wire.Writer)))
	f.Add(formMsg{Round: 9, Ring: ring, Members: []DaemonID{"a:1", "b:1"}}.encode(new(wire.Writer)))
	f.Add(tokenMsg{Ring: ring, TokenSeq: 5, Seq: 2, Rtr: []uint64{1}}.encode(new(wire.Writer)))
	f.Add(dataMsg{Ring: ring, Seq: 2, Origin: "a:1", Kind: dkGroupCast, Payload: []byte("x")}.encode(new(wire.Writer)))
	f.Add(recoverStateMsg{Ring: ring, Sender: "a:1", OldRing: ring, OldHigh: 4, Missing: []uint64{2}}.encode(new(wire.Writer)))
	f.Add(recoverDataMsg{Ring: ring, OldRing: ring, Msg: dataMsg{Ring: ring, Seq: 1, Origin: "a:1"}}.encode(new(wire.Writer)))
	f.Add(recoverDoneMsg{Ring: ring, Sender: "a:1"}.encode(new(wire.Writer)))
	f.Add([]byte{})
	f.Add([]byte{'W', 'G', 2, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	ids := idTable{}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		typ, err := readHeader(r)
		if err != nil {
			return
		}
		defer func() {
			if len(ids) > maxInterned {
				t.Fatalf("ID table holds %d entries, cap is %d", len(ids), maxInterned)
			}
		}()
		switch typ {
		case mtAlive:
			_, _ = ids.decodeAlive(r)
		case mtLeave:
			_, _ = ids.decodeLeave(r)
		case mtJoin:
			_, _ = ids.decodeJoin(r, nil)
		case mtForm:
			_, _ = ids.decodeForm(r)
		case mtToken:
			_, _ = ids.decodeToken(r)
		case mtData:
			_, _ = ids.decodeData(r)
		case mtRecoverState:
			_, _ = ids.decodeRecoverState(r)
		case mtRecoverData:
			_, _ = ids.decodeRecoverData(r)
		case mtRecoverDone:
			_, _ = ids.decodeRecoverDone(r)
		}
	})
}

// FuzzGroupPayloads covers the group-layer payload codecs and the name table
// they intern into, which keeps to its cap like the ID table.
func FuzzGroupPayloads(f *testing.F) {
	f.Add(appendGroupsState(nil, []stateEntry{{client: "w", groups: []string{"g"}}}))
	f.Add(appendGroupOp(nil, "w", "g"))
	f.Add(appendGroupCast(nil, "w", "g", []byte("body")))
	ids := idTable{}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func() {
			if len(ids) > maxInterned {
				t.Fatalf("name table holds %d entries, cap is %d", len(ids), maxInterned)
			}
		}()
		_, _ = ids.decodeGroupsState(data, nil)
		_, _, _ = ids.decodeGroupOp(data)
		_, _, _, _ = ids.decodeGroupCast(data)
	})
}
