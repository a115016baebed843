// Package arp implements the RFC 826 Address Resolution Protocol packet
// format for Ethernet/IPv4 and the notification interface Wackamole's
// platform-specific code uses to spoof ARP replies after acquiring a virtual
// address (§5.1 of the paper).
//
// The encoder produces the exact 28-byte wire payload a real ARP
// implementation would; the simulated network (package netsim) carries these
// bytes verbatim, so the same codec serves both the simulator and a raw
// -socket deployment.
package arp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Op is the ARP operation code.
type Op uint16

// ARP operations per RFC 826.
const (
	OpRequest Op = 1
	OpReply   Op = 2
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpRequest:
		return "request"
	case OpReply:
		return "reply"
	default:
		return fmt.Sprintf("op(%d)", uint16(o))
	}
}

// packetLen is the size of an Ethernet/IPv4 ARP payload.
const packetLen = 28

const (
	htypeEthernet = 1
	ptypeIPv4     = 0x0800
)

// errMalformed reports an undecodable ARP payload.
var errMalformed = errors.New("arp: malformed packet")

// Packet is an Ethernet/IPv4 ARP payload.
type Packet struct {
	Op        Op
	SenderMAC [6]byte
	SenderIP  netip.Addr
	TargetMAC [6]byte
	TargetIP  netip.Addr
}

// IsGratuitous reports whether the packet is a gratuitous announcement: the
// sender speaks about its own protocol address.
func (p Packet) IsGratuitous() bool {
	return p.SenderIP == p.TargetIP
}

// Encode serializes the packet into its 28-byte RFC 826 representation.
// Both addresses must be IPv4.
func (p Packet) Encode() ([]byte, error) {
	if !p.SenderIP.Is4() || !p.TargetIP.Is4() {
		return nil, fmt.Errorf("arp: encode: addresses must be IPv4 (sender %v, target %v)", p.SenderIP, p.TargetIP)
	}
	b := make([]byte, packetLen)
	binary.BigEndian.PutUint16(b[0:2], htypeEthernet)
	binary.BigEndian.PutUint16(b[2:4], ptypeIPv4)
	b[4] = 6 // hardware address length
	b[5] = 4 // protocol address length
	binary.BigEndian.PutUint16(b[6:8], uint16(p.Op))
	copy(b[8:14], p.SenderMAC[:])
	spa := p.SenderIP.As4()
	copy(b[14:18], spa[:])
	copy(b[18:24], p.TargetMAC[:])
	tpa := p.TargetIP.As4()
	copy(b[24:28], tpa[:])
	return b, nil
}

// Decode parses a 28-byte RFC 826 Ethernet/IPv4 ARP payload.
func Decode(b []byte) (Packet, error) {
	if len(b) < packetLen {
		return Packet{}, fmt.Errorf("%w: %d bytes", errMalformed, len(b))
	}
	if binary.BigEndian.Uint16(b[0:2]) != htypeEthernet ||
		binary.BigEndian.Uint16(b[2:4]) != ptypeIPv4 ||
		b[4] != 6 || b[5] != 4 {
		return Packet{}, fmt.Errorf("%w: not Ethernet/IPv4", errMalformed)
	}
	var p Packet
	p.Op = Op(binary.BigEndian.Uint16(b[6:8]))
	copy(p.SenderMAC[:], b[8:14])
	p.SenderIP = netip.AddrFrom4([4]byte(b[14:18]))
	copy(p.TargetMAC[:], b[18:24])
	p.TargetIP = netip.AddrFrom4([4]byte(b[24:28]))
	return p, nil
}

// Notifier is the hook Wackamole's engine calls after acquiring a virtual
// address, so that routers and peers with stale ARP caches learn the new
// <IP, MAC> binding immediately instead of waiting for cache expiry.
type Notifier interface {
	// Announce advertises that this host now answers for vip.
	Announce(vip netip.Addr)
	// Withdraw signals that this host stopped answering for vip. Most
	// implementations need no action (the new owner announces), but probes
	// and tests use it to track intent.
	Withdraw(vip netip.Addr)
}

// NopNotifier ignores all announcements.
type NopNotifier struct{}

// Announce implements Notifier.
func (NopNotifier) Announce(netip.Addr) {}

// Withdraw implements Notifier.
func (NopNotifier) Withdraw(netip.Addr) {}

var _ Notifier = NopNotifier{}
