// Package metrics is the latency-and-activity instrumentation layer shared
// by every subsystem in this repository. The paper's entire evaluation (§5,
// Figure 5, Table 1) is about time — detection latency, membership-install
// latency, state-sync and ARP-takeover duration — so the protocol layers
// need first-class latency measurement, not just event counts.
//
// A Registry holds typed instruments: monotone Counters, integer Gauges and
// log-bucketed latency Histograms, each optionally tagged with label pairs
// (node, group, segment). Histogram bucket boundaries are fixed and shared
// by every histogram, so merging two snapshots is a plain element-wise sum —
// lock-free, associative and deterministic regardless of merge order.
//
// Like obs.Tracer, a nil *Registry is a valid, permanently disabled
// registry: instrument getters on nil return nil instruments whose
// observation methods are zero-allocation no-ops, so protocol code calls
// them unconditionally on hot paths (token passes, request completions)
// without a feature flag, and traced/untraced runs stay byte-identical.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind types an instrument family.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota + 1
	kindGauge
	kindHistogram
)

// String names the kind in Prometheus TYPE vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Label is one name=value pair attached to an instrument.
type Label struct {
	Key, Value string
}

// L builds a Label; it keeps instrument-creation call sites short.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// numBuckets is the number of finite histogram buckets. With boundaries
// starting at 1µs and doubling, the last finite boundary is
// 1µs·2^27 ≈ 134s — wide enough for every duration the evaluation measures
// (frame latencies of ~100µs up to multi-second fail-over interruptions)
// and for small event counts (retransmits per reconfiguration).
const numBuckets = 28

// bucketBoundaries are the shared upper bounds (in seconds for duration
// histograms; dimensionless for count histograms), fixed so that any two
// histograms merge element-wise.
var bucketBoundaries = func() [numBuckets]float64 {
	var b [numBuckets]float64
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// BucketBoundaries returns a copy of the shared finite bucket upper bounds,
// ascending. Observations above the last boundary land in the implicit
// +Inf bucket.
func BucketBoundaries() []float64 {
	out := make([]float64, numBuckets)
	copy(out[:], bucketBoundaries[:])
	return out
}

// bucketIndex locates v's bucket: the first boundary >= v, or numBuckets
// (the +Inf bucket) when v exceeds them all.
func bucketIndex(v float64) int {
	if v <= bucketBoundaries[0] {
		return 0
	}
	if v > bucketBoundaries[numBuckets-1] {
		return numBuckets
	}
	// Buckets double, so the index is a logarithm; binary search avoids
	// floating-point log edge cases.
	lo, hi := 1, numBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= bucketBoundaries[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Counter is a monotonically increasing count. A nil *Counter is a valid
// disabled instrument.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.add(1) }

// add adds n. On a nil counter it is a zero-allocation no-op.
func (c *Counter) add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer level that can rise and fall (clock skews, placement
// imbalance). A nil *Gauge is a valid disabled instrument.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// value returns the current level (0 on nil).
func (g *Gauge) value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a log-bucketed distribution with fixed, shared bucket
// boundaries. Observations are lock-free (per-bucket atomics plus a CAS
// loop for the sum), so hot protocol paths observe without contention. A
// nil *Histogram is a valid disabled instrument.
type Histogram struct {
	buckets [numBuckets + 1]atomic.Uint64 // last slot is the +Inf bucket
	sumBits atomic.Uint64                 // math.Float64bits of the running sum
}

// Observe records v. On a nil histogram it is a zero-allocation no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		newSum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(newSum)) {
			return
		}
	}
}

// ObserveDuration records d in seconds, the unit of every *_seconds family.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Snapshot copies the histogram's current state. On nil it returns a zero
// snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// HistSnapshot is an immutable copy of a histogram: cumulative-free bucket
// counts (index i counts observations in (boundary[i-1], boundary[i]]; the
// last slot is the +Inf bucket) plus the observation sum.
type HistSnapshot struct {
	Counts [numBuckets + 1]uint64
	Sum    float64
}

// Count totals the observations.
func (s HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// merge sums other into s element-wise. Because every histogram shares the
// same fixed boundaries, merge is associative and commutative: merging
// per-node or per-trial snapshots in any order yields identical buckets.
func (s *HistSnapshot) merge(other HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Sum += other.Sum
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the buckets: the
// nearest-rank bucket is located exactly, then the value is interpolated
// linearly within it (the same estimator Prometheus' histogram_quantile
// uses). Returns 0 for an empty histogram; an observation in the +Inf
// bucket reports the last finite boundary, the tightest bound the buckets
// can give.
func (s HistSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum < rank {
			continue
		}
		if i >= numBuckets {
			return bucketBoundaries[numBuckets-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bucketBoundaries[i-1]
		}
		hi := bucketBoundaries[i]
		// Position of the rank within this bucket's count.
		inBucket := float64(rank-(cum-c)) / float64(c)
		return lo + (hi-lo)*inBucket
	}
	return bucketBoundaries[numBuckets-1]
}

// QuantileDuration is Quantile for *_seconds histograms.
func (s HistSnapshot) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q) * float64(time.Second))
}

// QuantileCount is Quantile for count-valued histograms (retransmits per
// reconfiguration, queue depths). The shared log2 boundaries are fractional
// (1.05, 2.10, 4.19, ...), so raw interpolation reports non-integer counts;
// rounding up restores an integer that still bounds the estimated quantile.
// A quantile inside the first bucket (≤ 1e-6) can only come from integer
// observations of 0, so it reports 0 rather than ceiling to 1.
func (s HistSnapshot) QuantileCount(q float64) uint64 {
	v := s.Quantile(q)
	if v <= bucketBoundaries[0] {
		return 0
	}
	return uint64(math.Ceil(v))
}

// Percentile returns the nearest-rank q-th percentile (q in [0,100]) of an
// ascending-sorted sample. This is the one exact-sample quantile
// implementation in the repository: the experiment layer's Stat and every
// offline analyzer use it, so sample and histogram quantiles can never
// disagree on their definition.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the 0-based index of the nearest-rank q-th percentile of n > 0
// sorted samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q/100*float64(n))), 1), n) - 1
}

// Select returns what Percentile returns for xs once sorted, without sorting
// it: it reorders xs only until the element of that rank is in place, which
// takes expected linear time.
func Select(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	k := rank(len(xs), q)
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Hoare partition around the median of three: afterwards xs[lo..j]
		// are ≤ p, xs[i..hi] are ≥ p, and anything between equals p.
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		p := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// seriesKey identifies one labelled series within a family.
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "\x00" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// family is one named instrument family with its labelled series.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series
}

type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // set by CounterFunc/GaugeFunc; read in place of ctr/gauge
}

// Registry holds instrument families. A nil *Registry is a valid,
// permanently disabled registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Enabled reports whether instruments are live (false on nil).
func (r *Registry) Enabled() bool { return r != nil }

// lookup returns the series for (name, labels), creating family and series
// as needed. It panics if name was previously registered with a different
// kind — a programming error that would corrupt the exposition.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	key := seriesKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch kind {
		case KindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = &Histogram{}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter (name, labels), creating it on first use.
// On a nil registry it returns a nil (disabled) counter without allocating.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, labels).ctr
}

// CounterFunc registers the counter (name, labels) as a view of a count kept
// elsewhere: every Snapshot reads it from fn, so the owner's own counter
// stays the single place the number lives. fn runs under the registry lock
// and must be safe to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.setFn(r.lookup(name, help, KindCounter, labels), func() float64 { return float64(fn()) })
}

// GaugeFunc registers the gauge (name, labels) as a view evaluated at
// scrape time: every Snapshot reads it from fn, so a level that drifts
// between updates (a suspicion that grows with silence) is never served
// stale. fn runs under the registry lock: it must not register instruments,
// and no lock it takes may be held by code that registers them.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.setFn(r.lookup(name, help, kindGauge, labels), fn)
}

func (r *Registry) setFn(s *series, fn func() float64) {
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Gauge returns the gauge (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels).gauge
}

// Histogram returns the histogram (name, labels), creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels).hist
}

// SeriesSnapshot is one labelled series' state within a family snapshot.
type SeriesSnapshot struct {
	Labels []Label
	// Value holds counter counts and gauge levels; unused for histograms.
	Value float64
	// Hist holds the histogram state; nil for counters and gauges.
	Hist *HistSnapshot
}

// FamilySnapshot is one family's state: name, help, kind and every series,
// sorted by label signature for deterministic iteration.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesSnapshot
}

// Snapshot is a point-in-time copy of a whole registry, families sorted by
// name.
type Snapshot struct {
	Families []FamilySnapshot
}

// Snapshot copies the registry's current state. On nil it returns an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(r.families))}
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.families[n]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{Labels: append([]Label(nil), s.labels...)}
			switch {
			case s.fn != nil:
				ss.Value = s.fn()
			case f.kind == KindCounter:
				ss.Value = float64(s.ctr.Value())
			case f.kind == kindGauge:
				ss.Value = float64(s.gauge.value())
			case f.kind == kindHistogram:
				h := s.hist.Snapshot()
				ss.Hist = &h
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Family returns the named family snapshot, or nil when absent.
func (s Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// MergedHistogram merges every series of the named histogram family into
// one distribution — the cluster-wide view of a per-node family. Returns a
// zero snapshot when the family is absent or not a histogram.
func (s Snapshot) MergedHistogram(name string) HistSnapshot {
	var out HistSnapshot
	f := s.Family(name)
	if f == nil || f.Kind != kindHistogram {
		return out
	}
	for _, ser := range f.Series {
		if ser.Hist != nil {
			out.merge(*ser.Hist)
		}
	}
	return out
}
