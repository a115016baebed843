package gcs

import (
	"errors"
	"fmt"
)

// Errors reported by session operations.
var (
	errSessionClosed = errors.New("gcs: session closed")
	errNameInUse     = errors.New("gcs: client name already connected")
	errDaemonClosed  = errors.New("gcs: daemon stopped")
	errPayloadTooBig = errors.New("gcs: payload exceeds the message size limit")
	errBackpressure  = errors.New("gcs: send queue full")
)

// maxPayload bounds one multicast payload (the wire format length-prefixes
// payloads with 16 bits, minus headroom for the envelope).
const maxPayload = 60 * 1024

// maxNameLen bounds a client or a group name. The headroom maxPayload leaves
// is what the two names of a cast's envelope have to fit in; unbounded, a long
// enough pair would overflow the 16-bit prefix of the data message around it.
const maxNameLen = 255

// errNameTooLong is returned wherever a client or group name enters the
// daemon — Connect, Join, Leave, Multicast — for a name over maxNameLen.
var errNameTooLong = errors.New("gcs: name exceeds the length limit")

func checkNameLen(what, name string) error {
	if len(name) > maxNameLen {
		return fmt.Errorf("%w: %s name of %d bytes", errNameTooLong, what, len(name))
	}
	return nil
}

// Session is a client connection to a local daemon, the analogue of a Spread
// client connection (§4.2 of the paper). Wackamole runs as one such client.
//
// All methods and callbacks run on the daemon's callback loop; handlers must
// not block.
type Session struct {
	d      *Daemon
	name   string
	joined map[string]bool
	closed bool

	viewH func(View)
	msgH  func(from GroupMember, group string, payload []byte)
	discH func()
}

// Connect attaches a named client to the daemon. Names must be unique per
// daemon; the pair (daemon id, client name) identifies the member
// cluster-wide.
func (d *Daemon) Connect(name string) (*Session, error) {
	if d.closed {
		return nil, errDaemonClosed
	}
	if name == "" {
		return nil, fmt.Errorf("gcs: empty client name")
	}
	if err := checkNameLen("client", name); err != nil {
		return nil, err
	}
	if _, ok := d.groups.sessions[name]; ok {
		return nil, fmt.Errorf("%w: %q on %s", errNameInUse, name, d.id)
	}
	s := &Session{d: d, name: name, joined: map[string]bool{}}
	d.groups.sessions[name] = s
	return s, nil
}

// SetViewHandler registers the group membership callback.
func (s *Session) SetViewHandler(h func(View)) { s.viewH = h }

// SetMessageHandler registers the Agreed-delivery message callback. A message
// handler must not retain or modify payload past its return: it is lent, not
// given — the bytes are the daemon's stored copy of the message, which
// retransmission and the Virtual Synchrony flush may still send.
func (s *Session) SetMessageHandler(h func(from GroupMember, group string, payload []byte)) {
	s.msgH = h
}

// SetDisconnectHandler registers the callback invoked when the session is
// severed (daemon shutdown or simulated connection loss). A Wackamole
// client reacts by dropping all of its virtual interfaces and periodically
// reconnecting, per §4.2.
func (s *Session) SetDisconnectHandler(h func()) { s.discH = h }

// Join requests membership in group. The membership becomes effective — and
// a View is delivered — when the join is delivered in total order. A client
// join does not trigger daemon-level reconfiguration, which is why
// voluntary membership changes complete in milliseconds rather than at
// fault-detection timescales (§6).
func (s *Session) Join(group string) error {
	if s.closed {
		return errSessionClosed
	}
	if group == "" {
		return fmt.Errorf("gcs: empty group name")
	}
	if err := checkNameLen("group", group); err != nil {
		return err
	}
	s.sendOp(dkGroupJoin, group)
	return nil
}

// Multicast sends payload to every member of group with Agreed (totally
// ordered) delivery, including this client if it is a member. Oversized
// payloads and a full daemon send queue are rejected rather than silently
// degraded (the daemon's flow control admits Window messages per token
// visit, so a persistent errBackpressure means the client outruns the
// ring).
func (s *Session) Multicast(group string, payload []byte) error {
	if s.closed {
		return errSessionClosed
	}
	if err := checkNameLen("group", group); err != nil {
		return err
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: %d bytes", errPayloadTooBig, len(payload))
	}
	if len(s.d.sendQueue) >= maxSendQueue {
		return errBackpressure
	}
	m := s.d.sendData(dkGroupCast)
	m.Payload = appendGroupCast(m.Payload, s.name, group, payload)
	return nil
}

// sendOp queues this client's join or leave of group.
func (s *Session) sendOp(kind dataKind, group string) {
	m := s.d.sendData(kind)
	m.Payload = appendGroupOp(m.Payload, s.name, group)
}

// Disconnect leaves all groups gracefully and detaches from the daemon.
func (s *Session) Disconnect() error {
	if s.closed {
		return errSessionClosed
	}
	for group := range s.joined {
		s.sendOp(dkGroupLeave, group)
	}
	s.closed = true
	delete(s.d.groups.sessions, s.name)
	return nil
}

// Sever simulates abrupt loss of the client-daemon connection: the daemon
// removes the client (broadcasting leaves on its behalf, as Spread does when
// a client socket dies) and the client's disconnect handler fires.
func (s *Session) Sever() {
	if s.closed {
		return
	}
	for group := range s.joined {
		s.sendOp(dkGroupLeave, group)
	}
	delete(s.d.groups.sessions, s.name)
	s.disconnected()
}

// disconnected marks the session dead and notifies the client.
func (s *Session) disconnected() {
	if s.closed {
		return
	}
	s.closed = true
	if s.discH != nil {
		s.discH()
	}
}
