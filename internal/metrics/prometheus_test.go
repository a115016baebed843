package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePrometheus is a small, strict parser for the text exposition format
// 0.0.4: it accepts only `# HELP`, `# TYPE` and sample lines, enforces that
// every sample belongs to a family previously declared by TYPE, that TYPE
// values are legal, and that label syntax and float values parse exactly.
// The conformance test runs every emitted line through it.
func parsePrometheus(t *testing.T, text string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = map[string]string{}
	legal := map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			if i := strings.IndexByte(rest, ' '); i <= 0 {
				t.Fatalf("line %d: HELP without docstring: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !legal[fields[1]] {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := types[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, fields[0])
			}
			types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment: %q", ln+1, line)
		}
		s := parseSample(t, ln+1, line)
		base := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(s.name, suffix)
			if trimmed != s.name {
				if _, ok := types[trimmed]; ok && types[trimmed] == "histogram" {
					base = trimmed
				}
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %s without TYPE declaration", ln+1, s.name)
		}
		samples = append(samples, s)
	}
	return types, samples
}

func parseSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		end := strings.IndexByte(rest, '}')
		if end < i {
			t.Fatalf("line %d: unterminated label set: %q", ln, line)
		}
		for _, pair := range splitLabels(rest[i+1 : end]) {
			eq := strings.IndexByte(pair, '=')
			if eq <= 0 {
				t.Fatalf("line %d: malformed label %q", ln, pair)
			}
			key, raw := pair[:eq], pair[eq+1:]
			if !validName(key) {
				t.Fatalf("line %d: bad label name %q", ln, key)
			}
			val, err := strconv.Unquote(raw)
			if err != nil {
				t.Fatalf("line %d: bad label value %q: %v", ln, raw, err)
			}
			s.labels[key] = val
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			t.Fatalf("line %d: malformed sample: %q", ln, line)
		}
		s.name, rest = fields[0], fields[1]
	}
	if !validName(s.name) {
		t.Fatalf("line %d: bad metric name %q", ln, s.name)
	}
	v, err := parseFloatProm(strings.TrimSpace(rest))
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

// splitLabels splits k="v",k2="v2" on commas outside quotes.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func parseFloatProm(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	if s == "-Inf" {
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// TestPrometheusConformance emits a registry with all three kinds, labels
// needing escaping and multi-series families, and runs every line through
// the strict parser.
func TestPrometheusConformance(t *testing.T) {
	r := New()
	r.Counter("gcs_retransmits_total", "retransmissions served", L("node", "d1")).add(3)
	r.Counter("gcs_retransmits_total", "retransmissions served", L("node", "d2")).add(4)
	r.Gauge("placement_skew", "most minus fewest addresses held", L("node", `d "0"`)).Set(7)
	h := r.Histogram("gcs_token_rotation_seconds", "time between token arrivals", L("node", "d1"))
	for i := 0; i < 5; i++ {
		h.ObserveDuration(2 * time.Millisecond)
	}
	h.Observe(1e9) // lands in +Inf

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	types, samples := parsePrometheus(t, text)

	if types["gcs_retransmits_total"] != "counter" ||
		types["placement_skew"] != "gauge" ||
		types["gcs_token_rotation_seconds"] != "histogram" {
		t.Fatalf("types = %v", types)
	}

	bySeries := map[string]float64{}
	for _, s := range samples {
		keys := make([]string, 0, len(s.labels))
		for k, v := range s.labels {
			keys = append(keys, k+"="+v)
		}
		sort.Strings(keys)
		bySeries[s.name+"|"+strings.Join(keys, ",")] = s.value
	}
	if bySeries[`gcs_retransmits_total|node=d1`] != 3 || bySeries[`gcs_retransmits_total|node=d2`] != 4 {
		t.Fatalf("counter series wrong: %v", bySeries)
	}
	if bySeries[`placement_skew|node=d "0"`] != 7 {
		t.Fatalf("escaped gauge label did not round-trip: %v", bySeries)
	}
	if bySeries[`gcs_token_rotation_seconds_count|node=d1`] != 6 {
		t.Fatalf("histogram count = %v", bySeries[`gcs_token_rotation_seconds_count|node=d1`])
	}
	if bySeries[`gcs_token_rotation_seconds_bucket|le=+Inf,node=d1`] != 6 {
		t.Fatalf("+Inf bucket = %v", bySeries[`gcs_token_rotation_seconds_bucket|le=+Inf,node=d1`])
	}

	// Bucket series must be cumulative and non-decreasing in le order.
	var buckets []promSample
	for _, s := range samples {
		if s.name == "gcs_token_rotation_seconds_bucket" {
			buckets = append(buckets, s)
		}
	}
	if len(buckets) != numBuckets+1 {
		t.Fatalf("bucket series = %d, want %d", len(buckets), numBuckets+1)
	}
	sort.Slice(buckets, func(i, j int) bool {
		li, _ := parseFloatProm(buckets[i].labels["le"])
		lj, _ := parseFloatProm(buckets[j].labels["le"])
		return li < lj
	})
	prev := -1.0
	for _, b := range buckets {
		if b.value < prev {
			t.Fatalf("bucket counts not cumulative: %v", buckets)
		}
		prev = b.value
	}

	// The sum line must carry the exact observation sum.
	wantSum := 5*0.002 + 1e9
	var sumLine string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "gcs_token_rotation_seconds_sum") {
			sumLine = line
		}
	}
	fields := strings.Fields(sumLine)
	got, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil || math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum line %q, want %g", sumLine, wantSum)
	}
}

// TestPrometheusDeterministic pins byte-for-byte determinism of the
// exposition across snapshots of identical registries.
func TestPrometheusDeterministic(t *testing.T) {
	build := func() string {
		r := New()
		// Insert in scrambled order; output must sort.
		r.Gauge("zz", "").Set(1)
		r.Counter("aa_total", "", L("b", "2")).add(1)
		r.Counter("aa_total", "", L("a", "1")).add(2)
		r.Histogram("mm_seconds", "").Observe(0.5)
		var b strings.Builder
		if err := WritePrometheus(&b, r.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, bb := build(), build()
	if a != bb {
		t.Fatalf("exposition not deterministic:\n%s\n---\n%s", a, bb)
	}
	if strings.Index(a, "aa_total") > strings.Index(a, "zz") {
		t.Fatalf("families not sorted:\n%s", a)
	}
	if !strings.Contains(a, fmt.Sprintf("le=%q", "1e-06")) {
		t.Fatalf("le formatting changed:\n%s", a)
	}
}
