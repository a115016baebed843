package core

import (
	"encoding/binary"
	"fmt"

	"wackamole/internal/wire"
)

// kind discriminates Wackamole's group messages.
type kind uint8

const (
	// kindState is the STATE_MSG of Algorithms 1–2: the sender's currently
	// held groups, its maturity, and its startup preferences, tagged with
	// the view it was initiated in.
	kindState kind = iota + 1
	// kindBalance is the BALANCE_MSG of Algorithm 3: the representative's
	// new allocation for the whole component.
	kindBalance
	// kindMature announces that a server declared itself mature after the
	// bootstrap timeout expired (§3.4).
	kindMature
	// kindAlloc is the representative's imposed allocation at the end of
	// GATHER (the §4.2 representative-decisions variant). Same payload as
	// kindBalance, but accepted during GATHER.
	kindAlloc
)

type stateMsg struct {
	ViewID string
	Mature bool
	Owned  []string // group names, sorted
	Prefer []string
}

type balanceMsg struct {
	ViewID string
	// Alloc lists (group, owner) pairs sorted by group name, covering every
	// configured group.
	Alloc []allocPair
}

type allocPair struct {
	Group string
	Owner MemberID
}

type matureMsg struct {
	ViewID string
}

const (
	coreMagic uint8 = 'w'
	coreVer   uint8 = 1
)

// encode sizes the buffer exactly: the payload is handed to Deps.Cast, which
// owns it from then on, so it is the one allocation a cast makes.
func (m stateMsg) encode() []byte {
	w := wire.NewWriter(3 + 2 + len(m.ViewID) + 1 + listSize(m.Owned) + listSize(m.Prefer))
	w.U8(coreMagic)
	w.U8(coreVer)
	w.U8(uint8(kindState))
	w.String(m.ViewID)
	w.Bool(m.Mature)
	w.StringList(m.Owned)
	w.StringList(m.Prefer)
	return w.Bytes()
}

// listSize is the encoded size of a string list: a count, and a length prefix
// per entry.
func listSize(ss []string) int {
	n := 2
	for _, s := range ss {
		n += 2 + len(s)
	}
	return n
}

func (m balanceMsg) encode() []byte { return m.encodeAs(kindBalance) }

// encodeAs serializes the allocation under the given message kind
// (kindBalance for re-balancing, kindAlloc for representative decisions).
func (m balanceMsg) encodeAs(k kind) []byte {
	w := wire.NewWriter(128)
	w.U8(coreMagic)
	w.U8(coreVer)
	w.U8(uint8(k))
	w.String(m.ViewID)
	w.U16(uint16(len(m.Alloc)))
	for _, p := range m.Alloc {
		w.String(p.Group)
		w.String(string(p.Owner))
	}
	return w.Bytes()
}

func (m matureMsg) encode() []byte {
	w := wire.NewWriter(32)
	w.U8(coreMagic)
	w.U8(coreVer)
	w.U8(uint8(kindMature))
	w.String(m.ViewID)
	return w.Bytes()
}

// stateView is a STATE_MSG validated in place: every field aliases the
// payload, which the group layer only lends for the duration of the delivery,
// so nothing here may outlive OnMessage. The two lists are walked with
// nextName; no string is built for a name.
type stateView struct {
	viewID []byte
	mature bool
	owned  []byte // the entries of the Owned list, still encoded
	prefer []byte
}

// nextName splits the first name off a list a stateView carries. The list was
// validated whole when the message was decoded, so this cannot run short.
func nextName(list []byte) (name, rest []byte) {
	n := 2 + int(binary.BigEndian.Uint16(list))
	return list[2:n], list[n:]
}

// viewNames reads a count-prefixed string list without building it: the
// result is the run of (length, bytes) entries as it sits in the buffer,
// empty after an error.
func viewNames(r *wire.Reader, b []byte) []byte {
	n := r.Count16(2)
	start := len(b) - r.Remaining()
	for i := 0; i < n && r.Err() == nil; i++ {
		r.View16()
	}
	if r.Err() != nil {
		return nil
	}
	return b[start : len(b)-r.Remaining()]
}

// decoded is the union of the message variants.
type decoded struct {
	kind    kind
	state   stateView
	balance balanceMsg
	mature  matureMsg
}

// decode accepts a message whole or not at all: a truncated or over-long one
// is an error before any of it is applied.
func decode(b []byte) (decoded, error) {
	r := wire.NewReader(b)
	if r.U8() != coreMagic {
		return decoded{}, fmt.Errorf("core: bad magic")
	}
	if v := r.U8(); v != coreVer {
		return decoded{}, fmt.Errorf("core: unsupported message version %d", v)
	}
	k := kind(r.U8())
	switch k {
	case kindState:
		m := stateView{viewID: r.View16(), mature: r.Bool(), owned: viewNames(r, b), prefer: viewNames(r, b)}
		return decoded{kind: k, state: m}, r.Done()
	case kindBalance, kindAlloc:
		m := balanceMsg{ViewID: r.String()}
		n := r.Count16(4) // two length prefixes per pair
		m.Alloc = make([]allocPair, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Alloc = append(m.Alloc, allocPair{Group: r.String(), Owner: MemberID(r.String())})
		}
		return decoded{kind: k, balance: m}, r.Done()
	case kindMature:
		return decoded{kind: k, mature: matureMsg{ViewID: r.String()}}, r.Done()
	default:
		return decoded{}, fmt.Errorf("core: unknown message kind %d", k)
	}
}
