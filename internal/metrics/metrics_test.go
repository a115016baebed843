package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("requests_total", "requests served")
	c.Inc()
	c.add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same (name, labels) returns the same instrument.
	if r.Counter("requests_total", "requests served") != c {
		t.Fatal("counter lookup is not idempotent")
	}
	g := r.Gauge("skew_ns", "clock skew", L("node", "d1"))
	g.Set(-3)
	if g.value() != -3 {
		t.Fatalf("gauge = %d, want -3", g.value())
	}
	g.Set(42)
	if g.value() != 42 {
		t.Fatalf("gauge = %d, want 42", g.value())
	}
	// Distinct labels make distinct series.
	if r.Gauge("queue_depth", "", L("segment", "ext")).value() != 0 {
		t.Fatal("label separation failed")
	}
}

// TestCounterFuncReadsAtSnapshotTime pins the func-backed counter: the
// registry keeps no copy of the count, every Snapshot reads the owner's.
func TestCounterFuncReadsAtSnapshotTime(t *testing.T) {
	r := New()
	n := uint64(3)
	r.CounterFunc("installs", "membership installs", func() uint64 { return n })
	value := func() float64 {
		f := r.Snapshot().Family("installs")
		if f == nil || f.Kind != KindCounter || len(f.Series) != 1 {
			t.Fatalf("family = %+v", f)
		}
		return f.Series[0].Value
	}
	if v := value(); v != 3 {
		t.Fatalf("value = %v, want 3", v)
	}
	n = 9
	if v := value(); v != 9 {
		t.Fatalf("value after the owner moved = %v, want 9", v)
	}
	var disabled *Registry
	disabled.CounterFunc("installs", "", func() uint64 { t.Fatal("read through a nil registry"); return 0 })
	disabled.Snapshot()
}

// TestGaugeFuncReadsAtSnapshotTime: a func-backed gauge is evaluated by
// every Snapshot, negative levels included.
func TestGaugeFuncReadsAtSnapshotTime(t *testing.T) {
	r := New()
	level := -2.0
	r.GaugeFunc("phi", "suspicion", func() float64 { return level }, L("peer", "b"))
	for _, want := range []float64{-2, 8000} {
		level = want
		f := r.Snapshot().Family("phi")
		if f == nil || f.Kind != kindGauge || len(f.Series) != 1 || f.Series[0].Value != want {
			t.Fatalf("family = %+v, want one gauge series at %v", f, want)
		}
	}
	var disabled *Registry
	disabled.GaugeFunc("phi", "", func() float64 { t.Fatal("read through a nil registry"); return 0 })
	disabled.Snapshot()
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestBucketIndexMatchesLinearScan(t *testing.T) {
	probes := []float64{0, 1e-9, 1e-6, 1.5e-6, 2e-6, 3.7e-4, 0.01, 1, 60, 134, 135, 1e6}
	for _, v := range probes {
		want := numBuckets
		for i, b := range bucketBoundaries {
			if v <= b {
				want = i
				break
			}
		}
		if got := bucketIndex(v); got != want {
			t.Errorf("bucketIndex(%g) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("latency_seconds", "")
	// 100 observations at ~1ms, 10 at ~1s.
	for i := 0; i < 100; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.ObserveDuration(time.Second)
	}
	s := h.Snapshot()
	if s.Count() != 110 {
		t.Fatalf("count = %d, want 110", s.Count())
	}
	wantSum := 100*0.001 + 10*1.0
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
	// P50 must fall in the bucket containing 1ms; P99 in the one containing 1s.
	p50 := s.Quantile(0.50)
	if p50 < 0.0005 || p50 > 0.002 {
		t.Fatalf("p50 = %g, want within the 1ms bucket", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 0.5 || p99 > 2.0 {
		t.Fatalf("p99 = %g, want within the 1s bucket", p99)
	}
	if s.QuantileDuration(0.99) != time.Duration(p99*float64(time.Second)) {
		t.Fatal("QuantileDuration disagrees with Quantile")
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile != 0")
	}
	var h Histogram
	h.Observe(1e9) // beyond the last finite boundary
	s := h.Snapshot()
	if s.Counts[numBuckets] != 1 {
		t.Fatal("overflow observation not in +Inf bucket")
	}
	if got := s.Quantile(1.0); got != bucketBoundaries[numBuckets-1] {
		t.Fatalf("overflow quantile = %g, want last finite boundary", got)
	}
}

// TestHistogramMergeAssociativeDeterministic exercises concurrent
// observation under -race and verifies that merging per-writer snapshots in
// any order and grouping yields identical buckets and sums.
func TestHistogramMergeAssociativeDeterministic(t *testing.T) {
	const writers = 8
	const perWriter = 1000
	r := New()
	hists := make([]*Histogram, writers)
	for i := range hists {
		hists[i] = r.Histogram("m_seconds", "", L("node", string(rune('a'+i))))
	}
	var wg sync.WaitGroup
	for i, h := range hists {
		wg.Add(1)
		go func(i int, h *Histogram) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				h.Observe(float64(i+1) * 1e-4)
			}
		}(i, h)
	}
	wg.Wait()

	snaps := make([]HistSnapshot, writers)
	for i, h := range hists {
		snaps[i] = h.Snapshot()
	}
	// Left fold.
	var left HistSnapshot
	for _, s := range snaps {
		left.merge(s)
	}
	// Right fold, reversed order.
	var right HistSnapshot
	for i := writers - 1; i >= 0; i-- {
		right.merge(snaps[i])
	}
	// Pairwise tree.
	var tree HistSnapshot
	for i := 0; i < writers; i += 2 {
		pair := snaps[i]
		pair.merge(snaps[i+1])
		tree.merge(pair)
	}
	// Bucket counts are integers, so their merge is exactly associative and
	// commutative; the float sum is associative only up to rounding.
	if left.Counts != right.Counts || left.Counts != tree.Counts {
		t.Fatalf("merge buckets not associative/commutative:\nleft  %+v\nright %+v\ntree  %+v", left, right, tree)
	}
	if math.Abs(left.Sum-right.Sum) > 1e-9 || math.Abs(left.Sum-tree.Sum) > 1e-9 {
		t.Fatalf("merge sums diverge: %g %g %g", left.Sum, right.Sum, tree.Sum)
	}
	if left.Count() != writers*perWriter {
		t.Fatalf("merged count = %d, want %d", left.Count(), writers*perWriter)
	}
	// The registry-level merged view agrees with the hand merge.
	if merged := r.Snapshot().MergedHistogram("m_seconds"); merged != left {
		t.Fatalf("MergedHistogram = %+v, want %+v", merged, left)
	}
}

// TestQuantileCount pins the count-valued presentation: the shared log2
// boundaries are fractional, so quantiles of integer observations must be
// ceiled back to whole counts.
func TestQuantileCount(t *testing.T) {
	var empty HistSnapshot
	if empty.QuantileCount(0.99) != 0 {
		t.Fatal("empty QuantileCount != 0")
	}
	// Integer observations of 0 land in the first bucket; their quantile
	// must read back as 0, not ceil up to 1.
	var zeros Histogram
	zeros.Observe(0)
	zeros.Observe(0)
	if got := zeros.Snapshot().QuantileCount(0.99); got != 0 {
		t.Fatalf("all-zero p99 = %d, want 0", got)
	}
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	s := h.Snapshot()
	if got := s.QuantileCount(0.50); got != 1 {
		t.Fatalf("p50 = %d, want 1", got)
	}
	p99 := s.QuantileCount(0.99)
	if p99 < 3 || p99 > 5 {
		t.Fatalf("p99 = %d, want a whole count bounding 3", p99)
	}
	// The raw interpolated quantile is fractional; the count form never is.
	if raw := s.Quantile(0.50); raw == math.Trunc(raw) {
		t.Logf("raw p50 happens to be integral: %g", raw)
	}
}

// TestNilRegistryZeroAlloc pins the disabled path: a nil registry and nil
// instruments must allocate nothing, exactly like the nil obs.Tracer, so
// instrumented and uninstrumented runs stay byte-identical.
func TestNilRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry claims enabled")
	}
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live instruments")
	}
	if avg := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.add(3)
		g.Set(1)
		h.Observe(0.5)
		h.ObserveDuration(time.Millisecond)
		_ = r.Counter("x_total", "")
		_ = r.Gauge("x", "")
		_ = r.Histogram("x_seconds", "")
	}); avg != 0 {
		t.Fatalf("nil-registry path allocates %.1f per run, want 0", avg)
	}
	if r.Snapshot().Families != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestLiveObservationZeroAlloc pins the hot observation path on live
// instruments, which protocol code runs per token pass and per request.
func TestLiveObservationZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("x_total", "")
	h := r.Histogram("x_seconds", "")
	if avg := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(0.001)
	}); avg != 0 {
		t.Fatalf("live observation allocates %.1f per run, want 0", avg)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {10, 1}, {50, 5}, {99, 10}, {100, 10}}
	for _, c := range cases {
		if got := Percentile(ds, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile != 0")
	}
}

// TestSelectMatchesPercentile pins Select to Percentile on a sorted copy, over
// sizes from one upward, value ranges from all-equal to all-distinct, sorted
// and reversed inputs, and every quantile the repository reads.
func TestSelectMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]time.Duration, n)
		spread := 1 + rng.Intn(2*n)
		for i := range xs {
			xs[i] = time.Duration(rng.Intn(spread))
		}
		switch trial % 4 {
		case 1:
			slices.Sort(xs)
		case 2:
			slices.Sort(xs)
			slices.Reverse(xs)
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, q := range []float64{0, 1, 50, 90, 99, 100} {
			want := Percentile(sorted, q)
			if got := Select(xs, q); got != want {
				t.Fatalf("trial %d (n %d): Select(%v) = %v, Percentile = %v", trial, n, q, got, want)
			}
		}
		if slices.Sort(xs); !slices.Equal(xs, sorted) {
			t.Fatalf("trial %d: Select changed the multiset it reordered", trial)
		}
	}
	if Select(nil, 50) != 0 {
		t.Fatal("empty selection != 0")
	}
}

func TestBucketBoundariesFixed(t *testing.T) {
	b := BucketBoundaries()
	if len(b) != numBuckets {
		t.Fatalf("len = %d", len(b))
	}
	if b[0] != 1e-6 {
		t.Fatalf("first boundary = %g, want 1e-6", b[0])
	}
	for i := 1; i < len(b); i++ {
		if math.Abs(b[i]/b[i-1]-2) > 1e-12 {
			t.Fatalf("boundary %d not doubling: %g -> %g", i, b[i-1], b[i])
		}
	}
	// Mutating the copy must not affect the shared table.
	b[0] = 99
	if BucketBoundaries()[0] != 1e-6 {
		t.Fatal("BucketBoundaries returned a live reference")
	}
}
