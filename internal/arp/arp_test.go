package arp

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Packet{
		Op:        OpReply,
		SenderMAC: [6]byte{0x0A, 0, 0, 0, 0, 1},
		SenderIP:  netip.MustParseAddr("10.0.0.100"),
		TargetMAC: [6]byte{0x0A, 0, 0, 0, 0, 2},
		TargetIP:  netip.MustParseAddr("10.0.0.1"),
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != packetLen {
		t.Fatalf("encoded length = %d, want %d", len(b), packetLen)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip = %+v, want %+v", got, p)
	}
}

func TestWireLayoutMatchesRFC826(t *testing.T) {
	p := Packet{
		Op:        OpRequest,
		SenderMAC: [6]byte{1, 2, 3, 4, 5, 6},
		SenderIP:  netip.MustParseAddr("192.168.0.1"),
		TargetMAC: [6]byte{},
		TargetIP:  netip.MustParseAddr("192.168.0.2"),
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x00, 0x01, // htype Ethernet
		0x08, 0x00, // ptype IPv4
		0x06, 0x04, // hlen, plen
		0x00, 0x01, // oper request
		1, 2, 3, 4, 5, 6, // sha
		192, 168, 0, 1, // spa
		0, 0, 0, 0, 0, 0, // tha
		192, 168, 0, 2, // tpa
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("wire bytes:\n got %v\nwant %v", b, want)
	}
}

func TestEncodeRejectsIPv6(t *testing.T) {
	p := Packet{
		Op:       OpReply,
		SenderIP: netip.MustParseAddr("::1"),
		TargetIP: netip.MustParseAddr("10.0.0.1"),
	}
	if _, err := p.Encode(); err == nil {
		t.Fatal("Encode with IPv6 sender succeeded")
	}
}

func TestDecodeRejectsShortAndForeign(t *testing.T) {
	if _, err := Decode(make([]byte, 10)); !errors.Is(err, errMalformed) {
		t.Fatalf("short decode err = %v, want errMalformed", err)
	}
	b := make([]byte, packetLen)
	b[0], b[1] = 0x00, 0x06 // IEEE 802 hardware type, not Ethernet
	if _, err := Decode(b); !errors.Is(err, errMalformed) {
		t.Fatalf("foreign htype err = %v, want errMalformed", err)
	}
}

func TestIsGratuitous(t *testing.T) {
	vip := netip.MustParseAddr("10.0.0.100")
	grat := Packet{Op: OpReply, SenderIP: vip, TargetIP: vip}
	if !grat.IsGratuitous() {
		t.Fatal("sender==target not reported gratuitous")
	}
	normal := Packet{Op: OpReply, SenderIP: vip, TargetIP: netip.MustParseAddr("10.0.0.1")}
	if normal.IsGratuitous() {
		t.Fatal("distinct sender/target reported gratuitous")
	}
}

func TestOpString(t *testing.T) {
	if OpRequest.String() != "request" || OpReply.String() != "reply" {
		t.Fatal("known op names wrong")
	}
	if Op(9).String() != "op(9)" {
		t.Fatalf("unknown op string = %q", Op(9).String())
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(op uint16, sha, tha [6]byte, spa, tpa [4]byte) bool {
		p := Packet{
			Op:        Op(op),
			SenderMAC: sha,
			SenderIP:  netip.AddrFrom4(spa),
			TargetMAC: tha,
			TargetIP:  netip.AddrFrom4(tpa),
		}
		b, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(b)
		return err == nil && got == p
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	prop := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
