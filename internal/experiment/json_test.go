package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestFigure5JSONLatencySchemaRoundTrip checks that the -json per-trial rows
// carry the latency summary and that the schema survives a decode/encode
// cycle: what a downstream consumer parses is exactly what was written.
func TestFigure5JSONLatencySchemaRoundTrip(t *testing.T) {
	rows := tracedFigure5(t, 2, 1)
	var jsonRows []rowJSON
	for _, r := range rows {
		jsonRows = append(jsonRows, r.wire())
	}

	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}

	dec := json.NewDecoder(&buf)
	var decoded []rowJSON
	for dec.More() {
		var r rowJSON
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, r)
	}
	if len(decoded) != len(jsonRows) {
		t.Fatalf("decoded %d rows, wrote %d", len(decoded), len(jsonRows))
	}

	for i, r := range decoded {
		if len(r.PerTrial) != 2 {
			t.Fatalf("row %d: per_trial = %d, want 2", i, len(r.PerTrial))
		}
		for _, tr := range r.PerTrial {
			if tr.Latency == nil {
				t.Fatalf("row %d seed %d: traced trial without latency summary", i, tr.Seed)
			}
			// The latency summary is all plain floats/ints, so the round
			// trip must be bit-exact.
			if !reflect.DeepEqual(tr.Latency, jsonRows[i].perTrialLatency(tr.Seed)) {
				t.Fatalf("row %d seed %d: latency changed in round trip:\nwrote %+v\nread  %+v",
					i, tr.Seed, jsonRows[i].perTrialLatency(tr.Seed), tr.Latency)
			}
			// Sanity of the measured quantities: the token rotated during the
			// trial and quantiles are ordered.
			if tr.Latency.TokenRotationObs == 0 {
				t.Fatalf("row %d seed %d: no token rotation observations", i, tr.Seed)
			}
			if tr.Latency.TokenRotationP50Sec <= 0 ||
				tr.Latency.TokenRotationP99Sec < tr.Latency.TokenRotationP50Sec {
				t.Fatalf("row %d seed %d: bad rotation quantiles %+v", i, tr.Seed, tr.Latency)
			}
			if tr.Latency.InstallP50Sec <= 0 {
				t.Fatalf("row %d seed %d: no membership-install latency", i, tr.Seed)
			}
		}
	}

	// Untraced sweeps omit the latency summary entirely (no "latency" key).
	plain, err := Sweep(figure5, Grid{Seed: 300, Trials: 1, Sizes: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteNDJSON(&buf, plain); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"latency"`)) {
		t.Fatalf("untraced rows leak a latency field:\n%s", buf.String())
	}
	if bytes.Contains(buf.Bytes(), []byte(`"per_trial"`)) {
		t.Fatalf("untraced rows leak per_trial:\n%s", buf.String())
	}
}

// perTrialLatency finds the written latency summary for a seed.
func (r rowJSON) perTrialLatency(seed int64) *latencyJSON {
	for _, tr := range r.PerTrial {
		if tr.Seed == seed {
			return tr.Latency
		}
	}
	return nil
}
