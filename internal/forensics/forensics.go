// Package forensics reconstructs cluster-wide failover timelines from
// per-daemon flight-recorder bundles (internal/obs.FlightRecorder). Each
// live daemon records its own bounded trace on its own wall clock; this
// package merges N such bundles into one causally consistent event stream by
// ordering on the hybrid-logical-clock stamps the daemons piggybacked on
// every wire message, then explains each measured gap as a Failover: the
// paper's §5 phases (obs.Breakdown) and whether the gap holds the whole
// fail-over, by the anchor search of obs.ExplainFailover. A simulated
// trial's events, on virtual time, are a Merged stream too, so
// cmd/wacktrace reconstructs traces and bundles alike.
//
// The merge is deterministic: events sort by (effective wall, logical, node,
// per-node sequence), so repeated merges of the same bundles are
// byte-identical — a property TestForensicsLiveCluster asserts on a live
// cluster's bundles, reloaded from disk.
package forensics

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"wackamole/internal/obs"
)

// Bundle is one loaded flight-recorder bundle.
type Bundle struct {
	// Manifest identifies the node, dump reason and clock state.
	Manifest obs.FlightManifest
	// Events is the node's trace tail, as recorded (node-local order).
	Events []obs.Event
}

// loadBundle reads one bundle directory (it must contain manifest.json).
func loadBundle(dir string) (*Bundle, error) {
	b := &Bundle{}
	raw, err := os.ReadFile(filepath.Join(dir, obs.ManifestName))
	if err != nil {
		return nil, fmt.Errorf("forensics: %w", err)
	}
	if err := json.Unmarshal(raw, &b.Manifest); err != nil {
		return nil, fmt.Errorf("forensics: %s: %w", dir, err)
	}
	if fh, err := os.Open(filepath.Join(dir, obs.BundleTrace)); err == nil {
		dec := json.NewDecoder(fh)
		for dec.More() {
			var ev obs.Event
			if derr := dec.Decode(&ev); derr != nil {
				fh.Close()
				return nil, fmt.Errorf("forensics: %s/%s: %w", dir, obs.BundleTrace, derr)
			}
			b.Events = append(b.Events, ev)
		}
		fh.Close()
	}
	return b, nil
}

// LoadBundles loads every bundle found at or under each path: a path that is
// itself a bundle directory loads directly, a parent directory is scanned
// recursively for manifest.json files. Bundles are returned sorted by (node,
// dump sequence) so downstream processing is order-independent of the
// arguments.
func LoadBundles(paths ...string) ([]*Bundle, error) {
	seen := map[string]bool{}
	var out []*Bundle
	for _, p := range paths {
		var dirs []string
		if _, err := os.Stat(filepath.Join(p, obs.ManifestName)); err == nil {
			dirs = []string{p}
		} else {
			werr := filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() && d.Name() == obs.ManifestName {
					dirs = append(dirs, filepath.Dir(path))
				}
				return nil
			})
			if werr != nil {
				return nil, fmt.Errorf("forensics: %w", werr)
			}
		}
		for _, dir := range dirs {
			abs, err := filepath.Abs(dir)
			if err != nil {
				abs = dir
			}
			if seen[abs] {
				continue
			}
			seen[abs] = true
			b, err := loadBundle(dir)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("forensics: no bundles found under %s", strings.Join(paths, " "))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Manifest.Node != out[j].Manifest.Node {
			return out[i].Manifest.Node < out[j].Manifest.Node
		}
		return out[i].Manifest.Seq < out[j].Manifest.Seq
	})
	return out, nil
}

// NodeSkew is the per-node clock diagnostic of a merge.
type NodeSkew struct {
	// Node is the daemon identity.
	Node string
	// Events and Unstamped count the node's merged events and how many of
	// them carried no HLC stamp (ordered by local wall clock only).
	Events    int
	Unstamped int
	// MaxSkew is the largest wall-clock divergence the node's HLC observed
	// against any peer.
	MaxSkew time.Duration
	// LastHLC is the node's clock at dump time.
	LastHLC obs.HLC
}

// Merged is the causally ordered union of N bundles.
type Merged struct {
	// Events in cluster-wide causal order. Each event's At is rewritten to
	// its HLC wall component when stamped, so every consumer of the merged
	// stream (breakdown, timelines, rendering) works on the one clock the
	// nodes agreed on; unstamped events keep their local wall time.
	Events []obs.Event
	// Nodes holds per-node skew diagnostics, sorted by node.
	Nodes []NodeSkew
}

// mergeKey orders events: HLC-stamped events by (wall, logical), unstamped
// ones by local wall time; ties break by node then per-node sequence, making
// the total order deterministic across repeated merges.
type mergeKey struct {
	wall    int64
	logical uint32
	node    string
	seq     uint64
}

func (k mergeKey) less(o mergeKey) bool {
	if k.wall != o.wall {
		return k.wall < o.wall
	}
	if k.logical != o.logical {
		return k.logical < o.logical
	}
	if k.node != o.node {
		return k.node < o.node
	}
	return k.seq < o.seq
}

// Merge combines the bundles into one causally ordered stream. Bundles from
// the same node (repeated dumps with overlapping trace rings) are
// deduplicated by per-node (sequence, timestamp) — the timestamp
// disambiguates incarnations of a restarted daemon, whose sequence numbers
// start over.
func Merge(bundles []*Bundle) *Merged {
	m := &Merged{}
	type keyed struct {
		key mergeKey
		ev  obs.Event
	}
	type evKey struct {
		seq  uint64
		wall int64
	}
	var all []keyed
	skews := map[string]*NodeSkew{}
	seen := map[string]map[evKey]bool{} // node → events already taken

	// Deterministic bundle order regardless of argument order.
	ordered := append([]*Bundle(nil), bundles...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Manifest.Node != ordered[j].Manifest.Node {
			return ordered[i].Manifest.Node < ordered[j].Manifest.Node
		}
		return ordered[i].Manifest.Seq < ordered[j].Manifest.Seq
	})
	for _, b := range ordered {
		node := b.Manifest.Node
		sk := skews[node]
		if sk == nil {
			sk = &NodeSkew{Node: node}
			skews[node] = sk
		}
		if d := time.Duration(b.Manifest.MaxSkewNS); d > sk.MaxSkew {
			sk.MaxSkew = d
		}
		last := obs.HLC{Wall: b.Manifest.HLCWall, Logical: b.Manifest.HLCLogical}
		if last.Compare(sk.LastHLC) > 0 {
			sk.LastHLC = last
		}
		taken := seen[node]
		if taken == nil {
			taken = map[evKey]bool{}
			seen[node] = taken
		}
		for _, ev := range b.Events {
			k := mergeKey{node: node, seq: ev.Seq}
			unstamped := ev.HLC.IsZero()
			if unstamped {
				k.wall = ev.At.UnixNano()
			} else {
				k.wall, k.logical = ev.HLC.Wall, ev.HLC.Logical
				ev.At = ev.HLC.Time()
			}
			if taken[evKey{ev.Seq, k.wall}] {
				continue
			}
			taken[evKey{ev.Seq, k.wall}] = true
			sk.Events++
			if unstamped {
				sk.Unstamped++
			}
			all = append(all, keyed{key: k, ev: ev})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key.less(all[j].key) })
	m.Events = make([]obs.Event, len(all))
	for i, k := range all {
		m.Events[i] = k.ev
	}
	for _, sk := range skews {
		m.Nodes = append(m.Nodes, *sk)
	}
	sort.Slice(m.Nodes, func(i, j int) bool { return m.Nodes[i].Node < m.Nodes[j].Node })
	return m
}

// WriteNDJSON writes the merged stream as NDJSON. The output is a pure
// function of the input bundles — no generation timestamps, no map
// iteration — so repeated merges are byte-identical.
func (m *Merged) WriteNDJSON(w io.Writer) error {
	return obs.WriteNDJSON(w, m.Events)
}

// Gap is one externally measured availability interruption to explain: the
// probe (or test harness) saw target unreachable during [Start, End].
type Gap struct {
	Target string    `json:"target"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Check rejects a gap no fail-over can explain: one that names no target
// or ends before it starts.
func (g Gap) Check() error {
	if g.Target == "" {
		return fmt.Errorf("no target")
	}
	if g.End.Before(g.Start) {
		return fmt.Errorf("ends at %s, before its start %s", g.End.Format(time.RFC3339Nano), g.Start.Format(time.RFC3339Nano))
	}
	return nil
}

// ReadGaps parses a JSON array of gaps, each of which must pass Check.
func ReadGaps(r io.Reader) ([]Gap, error) {
	var gaps []Gap
	if err := json.NewDecoder(r).Decode(&gaps); err != nil {
		return nil, fmt.Errorf("forensics: gaps: %w", err)
	}
	for i, g := range gaps {
		if err := g.Check(); err != nil {
			return nil, fmt.Errorf("forensics: gap %d: %w", i, err)
		}
	}
	return gaps, nil
}

// Failover is one reconstructed fail-over: the measured gap and what the
// events explain of it (Phases.Total() equals Gap by construction).
type Failover struct {
	Target   string        `json:"target"`
	GapStart time.Time     `json:"gap_start"`
	GapEnd   time.Time     `json:"gap_end"`
	Gap      time.Duration `json:"gap_ns"`
	obs.Explanation
}

// Reconstruct explains each measured gap from the merged stream with
// obs.ExplainFailover. Live traces carry no fault-injection marker, so
// detection is anchored at the gap start (the instant the outside world
// measured the target gone); a simulated trial's marker anchors it at the
// fault.
func (m *Merged) Reconstruct(gaps []Gap) []Failover {
	out := make([]Failover, 0, len(gaps))
	for _, g := range gaps {
		// Round(0) strips any monotonic reading a live probe's time.Now()
		// carried, so the gap and the phase boundaries (wall-clock event
		// times) subtract in the same clock domain and partition exactly.
		start, end := g.Start.Round(0), g.End.Round(0)
		out = append(out, Failover{
			Target:      g.Target,
			GapStart:    start.UTC(),
			GapEnd:      end.UTC(),
			Gap:         end.Sub(start),
			Explanation: obs.ExplainFailover(m.Events, start, end, g.Target),
		})
	}
	return out
}

// DetectGaps infers coverage gaps from the merged ownership events: for each
// address, a window between one owner's release (or last evidence) and the
// next owner's acquisition longer than minGap becomes a candidate gap. It is
// the fallback when no externally measured gaps are supplied; an outside
// probe remains the ground truth the paper measures.
func (m *Merged) DetectGaps(minGap time.Duration) []Gap {
	spans := obs.OwnershipTimeline(m.Events)
	addrs := make([]string, 0, len(spans))
	for a := range spans {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	var gaps []Gap
	for _, addr := range addrs {
		ss := spans[addr]
		for i := 0; i+1 < len(ss); i++ {
			if ss[i].To.IsZero() {
				continue // still held; overlapping owners, not a gap
			}
			if d := ss[i+1].From.Sub(ss[i].To); d >= minGap {
				gaps = append(gaps, Gap{Target: addr, Start: ss[i].To, End: ss[i+1].From})
			}
		}
	}
	return gaps
}
