package core

import (
	"bytes"
	"slices"
	"testing"

	"wackamole/internal/wire"
)

// build materialises a validated in-place STATE_MSG, the way the engine walks
// it.
func (m stateView) build() stateMsg {
	names := func(list []byte) (out []string) {
		for len(list) > 0 {
			var name []byte
			name, list = nextName(list)
			out = append(out, string(name))
		}
		return out
	}
	return stateMsg{ViewID: string(m.viewID), Mature: m.mature, Owned: names(m.owned), Prefer: names(m.prefer)}
}

// refDecodeState is the copying STATE_MSG decoder the in-place one replaced,
// kept as the reference it is checked against.
func refDecodeState(b []byte) (stateMsg, bool) {
	r := wire.NewReader(b)
	if r.U8() != coreMagic || r.U8() != coreVer || kind(r.U8()) != kindState {
		return stateMsg{}, false
	}
	m := stateMsg{ViewID: r.String(), Mature: r.Bool(), Owned: r.StringList(), Prefer: r.StringList()}
	return m, r.Done() == nil
}

// FuzzDecode throws arbitrary bytes at the Wackamole message decoder; the
// engine receives whatever the group delivers, so it must never panic. The
// in-place STATE decoder accepts exactly what the copying reference accepts
// and reads the same fields out of it — that is, exactly the byte strings
// whose re-encoding reproduces them (up to the maturity byte, where any
// nonzero value is true).
func FuzzDecode(f *testing.F) {
	f.Add(stateMsg{ViewID: "v1", Mature: true, Owned: []string{"vip00"}, Prefer: []string{"vip00"}}.encode())
	f.Add(balanceMsg{ViewID: "v1", Alloc: []allocPair{{Group: "vip00", Owner: "m00"}}}.encode())
	f.Add(balanceMsg{ViewID: "v1", Alloc: []allocPair{{Group: "vip00", Owner: "m00"}}}.encodeAs(kindAlloc))
	f.Add(matureMsg{ViewID: "v1"}.encode())
	f.Add([]byte{})
	f.Add([]byte{coreMagic, coreVer, 200})
	f.Add(stateMsg{ViewID: "v1"}.encode()[:7])
	f.Add(append(stateMsg{ViewID: "v1", Owned: []string{"a"}}.encode(), 0))
	f.Add([]byte{coreMagic, coreVer, byte(kindState), 0, 0, 1, 0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decode(data)
		want, ok := refDecodeState(data)
		if len(data) < 3 || kind(data[2]) != kindState {
			return
		}
		if ok != (err == nil) {
			t.Fatalf("in-place decode: %v, reference accepts: %v", err, ok)
		}
		if !ok {
			return
		}
		got := d.state.build()
		if got.ViewID != want.ViewID || got.Mature != want.Mature ||
			!slices.Equal(got.Owned, want.Owned) || !slices.Equal(got.Prefer, want.Prefer) {
			t.Fatalf("in-place decode read %+v, reference %+v", got, want)
		}
		again := got.encode()
		mature := 3 + 2 + len(got.ViewID) // after magic, version, kind and the length-prefixed view ID
		again[mature] = data[mature]
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding %x gives %x", data, again)
		}
	})
}

func TestDecodeRejectsWrongMagicAndVersion(t *testing.T) {
	if _, err := decode([]byte{'x', coreVer, 1}); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := decode([]byte{coreMagic, 99, 1}); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := decode([]byte{coreMagic, coreVer, 99}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	st := stateMsg{ViewID: "ring/3:9", Mature: true, Owned: []string{"a", "b"}, Prefer: []string{"a"}}
	d, err := decode(st.encode())
	if err != nil || d.kind != kindState {
		t.Fatalf("state decode: %+v %v", d, err)
	}
	if got := d.state.build(); got.ViewID != st.ViewID || !got.Mature ||
		!slices.Equal(got.Owned, st.Owned) || !slices.Equal(got.Prefer, st.Prefer) {
		t.Fatalf("state round trip: %+v", got)
	}

	bal := balanceMsg{ViewID: "v", Alloc: []allocPair{{Group: "g1", Owner: "m1"}, {Group: "g2", Owner: ""}}}
	d, err = decode(bal.encode())
	if err != nil || d.kind != kindBalance {
		t.Fatalf("balance decode: %+v %v", d, err)
	}
	if len(d.balance.Alloc) != 2 || d.balance.Alloc[1].Owner != "" {
		t.Fatalf("balance round trip: %+v", d.balance)
	}

	d, err = decode(bal.encodeAs(kindAlloc))
	if err != nil || d.kind != kindAlloc {
		t.Fatalf("alloc decode: %+v %v", d, err)
	}

	d, err = decode(matureMsg{ViewID: "v9"}.encode())
	if err != nil || d.kind != kindMature || d.mature.ViewID != "v9" {
		t.Fatalf("mature round trip: %+v %v", d, err)
	}
}
