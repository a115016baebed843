package health

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes through the telemetry decoder. Any
// input the decoder accepts must re-encode and re-decode to the identical
// frame (a fixed point), and the decoder must never panic or allocate
// unboundedly on hostile input — the same contract internal/gcs enforces for
// its wire messages.
func FuzzDecodeFrame(f *testing.F) {
	valid := sampleFrame()
	f.Add(AppendFrame(nil, &valid))
	minimal := Frame{Node: "n"}
	f.Add(AppendFrame(nil, &minimal))
	f.Add([]byte{})
	f.Add([]byte{'W', 'H', frameVersion})
	f.Add([]byte{'W', 'H', 99, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := decodeFrame(data)
		if err != nil {
			return
		}
		enc := AppendFrame(nil, &frame)
		back, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(frame, back) {
			t.Fatalf("decode/encode not a fixed point:\n got %+v\nwant %+v", back, frame)
		}
	})
}
