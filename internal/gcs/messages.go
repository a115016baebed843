package gcs

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/obs"
	"wackamole/internal/wire"
)

// DaemonID identifies a daemon by its stationary address ("ip:port").
// Lexicographic order on DaemonIDs provides the uniquely ordered membership
// list the Wackamole algorithm requires.
type DaemonID string

// RingID identifies one installed daemon membership (one "ring").
type RingID struct {
	Coord DaemonID
	Epoch uint64
}

// isZero reports whether the ring id is unset (daemon never installed).
func (r RingID) isZero() bool { return r.Coord == "" && r.Epoch == 0 }

// String formats the ring id.
func (r RingID) String() string { return fmt.Sprintf("%s/%d", r.Coord, r.Epoch) }

// ViewID identifies one group-membership view. Ring is the daemon membership
// the view was installed in; Seq is the ring sequence number of the totally
// ordered event that created the view, so all daemons derive identical view
// identifiers.
type ViewID struct {
	Ring RingID
	Seq  uint64
}

// String formats the view id.
func (v ViewID) String() string { return fmt.Sprintf("%s:%d", v.Ring, v.Seq) }

// msgType discriminates daemon wire messages.
type msgType uint8

const (
	mtAlive msgType = iota + 1
	mtJoin
	mtForm
	mtToken
	mtData
	mtRecoverState
	mtRecoverData
	mtRecoverDone
	mtLeave
)

// dataKind discriminates the group-layer payloads carried in mtData.
type dataKind uint8

const (
	dkGroupsState dataKind = iota + 1
	dkGroupJoin
	dkGroupLeave
	dkGroupCast
)

const (
	protoMagicA uint8 = 'W'
	protoMagicB uint8 = 'G'
	// protoVer 2 widened the header from 4 to 16 bytes: every message now
	// carries a hybrid-logical-clock stamp (8-byte wall + 4-byte logical)
	// so receivers can merge the sender's causal clock (internal/obs.HLC).
	protoVer uint8 = 2

	// hlcOffset is where the HLC stamp sits in the encoded message; encode
	// leaves it zeroed and the daemon patches it at transmit time
	// (stampHeader), so message structs stay free of clock plumbing.
	hlcOffset = 4
	// headerLen is the full v2 header: magic(2) ver(1) type(1) hlc(12).
	headerLen = hlcOffset + 12
)

type aliveMsg struct {
	Ring   RingID
	Sender DaemonID
}

// leaveMsg announces a graceful daemon departure: peers reconfigure
// immediately instead of waiting out the fault-detection timeout.
type leaveMsg struct {
	Ring   RingID
	Sender DaemonID
}

type joinMsg struct {
	Sender DaemonID
	Round  uint64
	Seen   []DaemonID
}

type formMsg struct {
	Round   uint64
	Ring    RingID
	Members []DaemonID // sorted
}

type tokenMsg struct {
	Ring     RingID
	TokenSeq uint64
	Seq      uint64
	Rtr      []uint64
}

type dataMsg struct {
	Ring    RingID
	Seq     uint64
	Origin  DaemonID
	Kind    dataKind
	Payload []byte
	// sentAt is local observation state, never encoded: the origin stamps
	// its own copy at Multicast time so delivery latency can be measured at
	// the sender; decoded copies carry the zero value.
	sentAt time.Time
}

type recoverStateMsg struct {
	Ring    RingID // new ring being formed
	Sender  DaemonID
	OldRing RingID
	OldHigh uint64
	Missing []uint64
}

type recoverDataMsg struct {
	Ring    RingID // new ring being formed
	OldRing RingID
	Msg     dataMsg
}

type recoverDoneMsg struct {
	Ring   RingID
	Sender DaemonID
}

// writeHeader starts a new message in w, discarding whatever it held: every
// datagram a daemon sends is encoded into its one scratch writer, which is
// safe because env.PacketConn does not retain payloads past the send call.
func writeHeader(w *wire.Writer, t msgType) {
	w.Reset()
	w.U8(protoMagicA)
	w.U8(protoMagicB)
	w.U8(protoVer)
	w.U8(uint8(t))
	w.U64(0) // HLC wall, patched by stampHeader at transmit time
	w.U32(0) // HLC logical
}

func readHeader(r *wire.Reader) (msgType, error) {
	if r.U8() != protoMagicA || r.U8() != protoMagicB {
		return 0, fmt.Errorf("gcs: bad magic")
	}
	if v := r.U8(); v != protoVer {
		return 0, fmt.Errorf("gcs: unsupported protocol version %d", v)
	}
	t := msgType(r.U8())
	r.U64() // HLC wall — readers use headerHLC on the raw payload instead
	r.U32() // HLC logical
	if err := r.Err(); err != nil {
		return 0, err
	}
	return t, nil
}

// stampHeader patches ts into payload's header HLC slot in place. Stamping
// at transmit time (rather than encode time) keeps the clock read as close
// to the wire as possible and spares every message struct a clock field.
func stampHeader(payload []byte, ts obs.HLC) {
	if len(payload) < headerLen {
		return
	}
	binary.BigEndian.PutUint64(payload[hlcOffset:], uint64(ts.Wall))
	binary.BigEndian.PutUint32(payload[hlcOffset+8:], ts.Logical)
}

// headerHLC reads the sender's HLC stamp from an encoded message; the zero
// HLC means the sender had no clock armed.
func headerHLC(payload []byte) obs.HLC {
	if len(payload) < headerLen {
		return obs.HLC{}
	}
	return obs.HLC{
		Wall:    int64(binary.BigEndian.Uint64(payload[hlcOffset:])),
		Logical: binary.BigEndian.Uint32(payload[hlcOffset+8:]),
	}
}

func writeRing(w *wire.Writer, r RingID) {
	w.String(string(r.Coord))
	w.U64(r.Epoch)
}

// maxInterned bounds an idTable. A cluster has tens of daemons; the bound only
// has to stop hostile traffic from growing the table without limit.
const maxInterned = 1024

// idTable interns the daemon IDs named by inbound datagrams, so that decoding
// a message from a known daemon allocates no string per ID field. Each daemon
// owns one (trials run concurrently; the table is never shared), and its
// group layer a second one for the client and group names in the payloads.
type idTable map[string]DaemonID

// read decodes one length-prefixed daemon ID.
func (t idTable) read(r *wire.Reader) DaemonID { return t.intern(r.View16()) }

// intern returns the table's copy of the ID spelled b, adding it if need be.
func (t idTable) intern(b []byte) DaemonID {
	if len(b) == 0 {
		return ""
	}
	if id, ok := t[string(b)]; ok { // no allocation: the compiler elides the conversion
		return id
	}
	id := DaemonID(b)
	if len(t) >= maxInterned {
		// Full of IDs that are mostly noise: start over. The daemons that
		// matter come back with their next heartbeat, at one string each.
		clear(t)
	}
	t[string(id)] = id
	return id
}

func (t idTable) readRing(r *wire.Reader) RingID {
	return RingID{Coord: t.read(r), Epoch: r.U64()}
}

// readName decodes one length-prefixed client or group name. A name longer
// than any Connect or Join admits can only come from a daemon that is not one
// of ours; it is decoded but not kept, which bounds a table entry.
func (t idTable) readName(r *wire.Reader) string {
	b := r.View16()
	if len(b) > maxNameLen {
		return string(b)
	}
	return string(t.intern(b))
}

func writeIDList(w *wire.Writer, ids []DaemonID) {
	if len(ids) > wire.MaxStringLen {
		panic(fmt.Sprintf("gcs: id list of %d entries exceeds %d", len(ids), wire.MaxStringLen))
	}
	w.U16(uint16(len(ids)))
	for _, id := range ids {
		w.String(string(id))
	}
}

// readIDList decodes a count-prefixed ID list into dst[:0], or into a list of
// its own when dst is nil.
func (t idTable) readIDList(r *wire.Reader, dst []DaemonID) []DaemonID {
	n := r.Count16(2)
	if dst == nil {
		dst = make([]DaemonID, 0, n)
	}
	dst = dst[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, t.read(r))
	}
	return dst
}

func (m aliveMsg) encode(w *wire.Writer) []byte {
	writeHeader(w, mtAlive)
	writeRing(w, m.Ring)
	w.String(string(m.Sender))
	return w.Bytes()
}

func (t idTable) decodeAlive(r *wire.Reader) (aliveMsg, error) {
	m := aliveMsg{Ring: t.readRing(r), Sender: t.read(r)}
	return m, r.Done()
}

func (m leaveMsg) encode(w *wire.Writer) []byte {
	writeHeader(w, mtLeave)
	writeRing(w, m.Ring)
	w.String(string(m.Sender))
	return w.Bytes()
}

func (t idTable) decodeLeave(r *wire.Reader) (leaveMsg, error) {
	m := leaveMsg{Ring: t.readRing(r), Sender: t.read(r)}
	return m, r.Done()
}

func (m joinMsg) encode(w *wire.Writer) []byte {
	writeHeader(w, mtJoin)
	w.String(string(m.Sender))
	w.U64(m.Round)
	writeIDList(w, m.Seen)
	return w.Bytes()
}

// decodeJoin decodes the Seen list into seen[:0]: a JOIN is merged into the
// gather set before the next datagram is looked at, so every JOIN a daemon
// receives can share one list.
func (t idTable) decodeJoin(r *wire.Reader, seen []DaemonID) (joinMsg, error) {
	m := joinMsg{Sender: t.read(r), Round: r.U64(), Seen: t.readIDList(r, seen)}
	return m, r.Done()
}

func (m formMsg) encode(w *wire.Writer) []byte {
	writeHeader(w, mtForm)
	w.U64(m.Round)
	writeRing(w, m.Ring)
	writeIDList(w, m.Members)
	return w.Bytes()
}

func (t idTable) decodeForm(r *wire.Reader) (formMsg, error) {
	// Members becomes the installed ring's member list: its own allocation.
	m := formMsg{Round: r.U64(), Ring: t.readRing(r), Members: t.readIDList(r, nil)}
	return m, r.Done()
}

func (m tokenMsg) encode(w *wire.Writer) []byte {
	writeHeader(w, mtToken)
	writeRing(w, m.Ring)
	w.U64(m.TokenSeq)
	w.U64(m.Seq)
	w.U64List(m.Rtr)
	return w.Bytes()
}

func (t idTable) decodeToken(r *wire.Reader) (tokenMsg, error) {
	m := tokenMsg{Ring: t.readRing(r), TokenSeq: r.U64(), Seq: r.U64(), Rtr: r.U64List()}
	return m, r.Done()
}

func (m dataMsg) encode(w *wire.Writer) []byte {
	writeHeader(w, mtData)
	m.encodeBody(w)
	return w.Bytes()
}

func (m dataMsg) encodeBody(w *wire.Writer) {
	writeRing(w, m.Ring)
	w.U64(m.Seq)
	w.String(string(m.Origin))
	w.U8(uint8(m.Kind))
	w.Bytes16(m.Payload)
}

// decodeDataBody decodes in place: Payload aliases the datagram, so whoever
// keeps the message past the packet handler copies it first.
func (t idTable) decodeDataBody(r *wire.Reader) dataMsg {
	return dataMsg{
		Ring:    t.readRing(r),
		Seq:     r.U64(),
		Origin:  t.read(r),
		Kind:    dataKind(r.U8()),
		Payload: r.View16(),
	}
}

func (t idTable) decodeData(r *wire.Reader) (dataMsg, error) {
	m := t.decodeDataBody(r)
	return m, r.Done()
}

func (m recoverStateMsg) encode(w *wire.Writer) []byte {
	writeHeader(w, mtRecoverState)
	writeRing(w, m.Ring)
	w.String(string(m.Sender))
	writeRing(w, m.OldRing)
	w.U64(m.OldHigh)
	w.U64List(m.Missing)
	return w.Bytes()
}

func (t idTable) decodeRecoverState(r *wire.Reader) (recoverStateMsg, error) {
	m := recoverStateMsg{
		Ring:    t.readRing(r),
		Sender:  t.read(r),
		OldRing: t.readRing(r),
		OldHigh: r.U64(),
		Missing: r.U64List(),
	}
	return m, r.Done()
}

func (m recoverDataMsg) encode(w *wire.Writer) []byte {
	writeHeader(w, mtRecoverData)
	writeRing(w, m.Ring)
	writeRing(w, m.OldRing)
	m.Msg.encodeBody(w)
	return w.Bytes()
}

// decodeRecoverData decodes in place: Msg.Payload aliases the datagram. A
// retransmission is either copied into a stored record or, stashed until its
// FORM arrives, cloned first.
func (t idTable) decodeRecoverData(r *wire.Reader) (recoverDataMsg, error) {
	m := recoverDataMsg{Ring: t.readRing(r), OldRing: t.readRing(r), Msg: t.decodeDataBody(r)}
	return m, r.Done()
}

func (m recoverDoneMsg) encode(w *wire.Writer) []byte {
	writeHeader(w, mtRecoverDone)
	writeRing(w, m.Ring)
	w.String(string(m.Sender))
	return w.Bytes()
}

func (t idTable) decodeRecoverDone(r *wire.Reader) (recoverDoneMsg, error) {
	m := recoverDoneMsg{Ring: t.readRing(r), Sender: t.read(r)}
	return m, r.Done()
}

// addrOf converts a daemon id back to a transport address; an id that is not
// one (only a hostile FORM can name such a member) yields the invalid address,
// which no endpoint can send to.
func addrOf(id DaemonID) env.Addr {
	a, _ := netip.ParseAddrPort(string(id))
	return a
}
