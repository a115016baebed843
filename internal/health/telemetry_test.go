package health

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

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
	got, err := decodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}

	// Empty lists survive as nil.
	minimal := Frame{Node: "n", Seq: 1}
	got, err = decodeFrame(AppendFrame(nil, &minimal))
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
		if _, err := decodeFrame(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A hostile count field must fail before allocating the list.
	hostile := []byte{'W', 'H', frameVersion, 0, 1, 'n'}
	hostile = append(hostile, make([]byte, 8+8+4+8)...) // seq, hlc, skew
	hostile = append(hostile, 0, 1, 'v', 0, 1, 's', 1)  // view, state, mature
	hostile = append(hostile, make([]byte, 8)...)       // generation
	hostile = append(hostile, 0xff, 0xff)               // members count 65535
	if _, err := decodeFrame(hostile); err == nil {
		t.Fatal("hostile list count accepted")
	}
}

func TestPeerStatusPhi(t *testing.T) {
	if phiMilli(-1) != 0 || phiMilli(2.5) != 2500 || phiMilli(1e9) != maxPhi*1000 {
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

// TestAppendFrameZeroAlloc pins the encoder: with a warm reused buffer,
// encoding allocates nothing.
func TestAppendFrameZeroAlloc(t *testing.T) {
	f := sampleFrame()
	buf := AppendFrame(nil, &f)
	if avg := testing.AllocsPerRun(1000, func() {
		buf = AppendFrame(buf[:0], &f)
	}); avg > 0 {
		t.Fatalf("AppendFrame allocates %.2f/op with a warm buffer", avg)
	}
}

func BenchmarkAppendFrame(b *testing.B) {
	f := sampleFrame()
	buf := AppendFrame(nil, &f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], &f)
	}
	_ = buf
}
