package health

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

func sampleFrame() Frame {
	return Frame{
		Node:       "10.0.0.10:4803",
		Seq:        42,
		HLC:        obs.HLC{Wall: 1700000000123456789, Logical: 7},
		SkewNS:     -250000,
		View:       "10.0.0.10:4803/3",
		State:      "run",
		Mature:     true,
		Generation: 3,
		Members:    []string{"10.0.0.10:4803", "10.0.0.11:4803", "10.0.0.12:4803"},
		Owned:      []string{"web1", "web3"},
		Peers: []PeerStatus{
			{Peer: "10.0.0.11:4803", PhiMilli: 312, LastHeardNS: 150_000_000, Samples: 64},
			{Peer: "10.0.0.12:4803", PhiMilli: 12400, LastHeardNS: 900_000_000, Samples: 64, Suspected: true},
		},
		Installs:        5,
		Reconfigs:       4,
		Delivered:       991,
		FramesPublished: 120,
		FramesDropped:   1,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := sampleFrame()
	enc := AppendFrame(nil, &f)
	if !isFrame(enc) {
		t.Fatal("encoded frame fails its own magic check")
	}
	got, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}

	// Empty lists survive as nil.
	minimal := Frame{Node: "n", Seq: 1}
	got, err = DecodeFrame(AppendFrame(nil, &minimal))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(minimal, got) {
		t.Fatalf("minimal round trip mismatch: %+v", got)
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	f := sampleFrame()
	enc := AppendFrame(nil, &f)
	cases := map[string][]byte{
		"empty":         nil,
		"short":         enc[:1],
		"wrong magic":   append([]byte{'W', 'G'}, enc[2:]...),
		"wrong version": append([]byte{'W', 'H', 99}, enc[3:]...),
		"truncated":     enc[:len(enc)-3],
		"trailing":      append(bytes.Clone(enc), 0xff),
	}
	for name, data := range cases {
		if _, err := DecodeFrame(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A hostile count field must fail before allocating the list.
	hostile := []byte{'W', 'H', frameVersion, 0, 1, 'n'}
	hostile = append(hostile, make([]byte, 8+8+4+8)...) // seq, hlc, skew
	hostile = append(hostile, 0, 1, 'v', 0, 1, 's', 1)  // view, state, mature
	hostile = append(hostile, make([]byte, 8)...)       // generation
	hostile = append(hostile, 0xff, 0xff)               // members count 65535
	if _, err := DecodeFrame(hostile); err == nil {
		t.Fatal("hostile list count accepted")
	}
}

func TestPeerStatusPhi(t *testing.T) {
	if PhiMilli(-1) != 0 || PhiMilli(2.5) != 2500 || PhiMilli(1e9) != maxPhi*1000 {
		t.Fatal("PhiMilli clamping wrong")
	}
}

func TestFrameJSON(t *testing.T) {
	f := sampleFrame()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back Frame
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, back) {
		t.Fatalf("JSON round trip mismatch: %+v", back)
	}
}

// TestAppendFrameZeroAlloc pins the publisher's encode path: with a warm
// reused buffer, encoding allocates nothing.
func TestAppendFrameZeroAlloc(t *testing.T) {
	f := sampleFrame()
	buf := AppendFrame(nil, &f)
	if avg := testing.AllocsPerRun(1000, func() {
		buf = AppendFrame(buf[:0], &f)
	}); avg > 0 {
		t.Fatalf("AppendFrame allocates %.2f/op with a warm buffer", avg)
	}
}

func BenchmarkTelemetryFrame(b *testing.B) {
	f := sampleFrame()
	buf := AppendFrame(nil, &f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], &f)
	}
	_ = buf
}

// fakeClock drives a Publisher deterministically.
type fakeClock struct {
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	c       *fakeClock
	at      time.Time
	f       func()
	stopped bool
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) NewTimer(f func()) env.Timer {
	t := &fakeTimer{c: c, f: f, stopped: true}
	c.timers = append(c.timers, t)
	return t
}
func (c *fakeClock) AfterFunc(d time.Duration, f func()) env.Timer {
	t := c.NewTimer(f)
	t.Reset(d)
	return t
}
func (t *fakeTimer) Stop() bool {
	was := t.stopped
	t.stopped = true
	return !was
}
func (t *fakeTimer) Reset(d time.Duration) { t.at, t.stopped = t.c.now.Add(d), false }

// advance runs all timers due at or before the new instant.
func (c *fakeClock) advance(d time.Duration) {
	c.now = c.now.Add(d)
	for {
		fired := false
		for _, t := range c.timers {
			if !t.stopped && !t.at.After(c.now) {
				t.stopped = true
				t.f()
				fired = true
			}
		}
		if !fired {
			return
		}
	}
}

func TestPublisher(t *testing.T) {
	clock := &fakeClock{now: t0}
	reg := metrics.New()
	var sent []Frame
	fail := false
	p := NewPublisher(PublisherOptions{
		Node:        "a",
		Interval:    100 * time.Millisecond,
		Subscribers: []string{"sub1", "sub2"},
		Clock:       clock,
		Send: func(to string, payload []byte) error {
			if fail {
				return errSendFailed
			}
			f, err := DecodeFrame(payload)
			if err != nil {
				t.Fatalf("publisher sent undecodable frame: %v", err)
			}
			sent = append(sent, f)
			return nil
		},
		Frame:   func(now time.Time) Frame { return Frame{View: "v1"} },
		Metrics: reg,
	})
	p.Start()
	clock.advance(100 * time.Millisecond)
	clock.advance(100 * time.Millisecond)
	if len(sent) != 4 { // 2 ticks x 2 subscribers
		t.Fatalf("sent %d frames, want 4", len(sent))
	}
	if sent[0].Node != "a" || sent[0].Seq != 1 || sent[2].Seq != 2 || sent[0].View != "v1" {
		t.Fatalf("frame stamping wrong: %+v", sent[0])
	}
	if p.Published() != 4 || p.Dropped() != 0 {
		t.Fatalf("published=%d dropped=%d", p.Published(), p.Dropped())
	}

	fail = true
	clock.advance(100 * time.Millisecond)
	if p.Dropped() != 2 {
		t.Fatalf("dropped=%d, want 2", p.Dropped())
	}

	p.Stop()
	fail = false
	clock.advance(time.Second)
	if len(sent) != 4 {
		t.Fatal("publisher kept sending after Stop")
	}

	// Disabled configurations yield a nil, inert publisher.
	var nilPub *Publisher
	nilPub.Start()
	nilPub.Stop()
	if nilPub.Published() != 0 || nilPub.Dropped() != 0 {
		t.Fatal("nil publisher not inert")
	}
	if NewPublisher(PublisherOptions{Clock: clock}) != nil {
		t.Fatal("publisher without subscribers should be nil")
	}
}

var errSendFailed = errTest("send failed")

type errTest string

func (e errTest) Error() string { return string(e) }
