package obs

// flight.go is the per-daemon black-box flight recorder. The paper measures
// fail-over from the outside (a probe gap); when a live cluster misbehaves
// there is no simulator to re-run, so each daemon keeps enough recent
// evidence in memory — the trace ring, the metrics surface, a bounded
// membership history, the effective config — to explain itself after the
// fact. On a trigger (invariant trip, interruption above threshold,
// SIGQUIT, `wackactl dump`) the recorder spills all of it atomically into
// one bundle directory that cmd/wacktrace can merge with the other nodes'
// bundles into a causally ordered cluster timeline.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"wackamole/internal/metrics"
)

// ManifestName is the file every bundle directory carries; bundle scanners
// (cmd/wacktrace) identify bundles by it.
const ManifestName = "manifest.json"

// Bundle file names. The trace is the ring tail as NDJSON, the metrics are
// the full /metrics surface, views are the bounded membership history,
// config is the effective daemon configuration verbatim.
const (
	BundleTrace   = "trace.ndjson"
	bundleMetrics = "metrics.prom"
	bundleViews   = "views.json"
	bundleConfig  = "config.conf"
	bundleHeap    = "heap.pprof"
)

// FlightConfig configures one recorder.
type FlightConfig struct {
	// Dir is the directory bundles are written under; it is created on the
	// first dump.
	Dir string
	// Node is the daemon identity stamped into manifests and used (sanitized)
	// in bundle directory names.
	Node string
	// Tracer supplies the trace tail and the HLC clock state; nil yields
	// bundles with an empty trace.
	Tracer *Tracer
	// Registry supplies the metrics surface; nil yields an empty
	// metrics.prom.
	Registry *metrics.Registry
	// Config is the effective configuration text written verbatim into the
	// bundle.
	Config string
	// InterruptionThreshold arms the automatic trigger: when a recorded
	// membership install lands more than this long after the discovery that
	// produced it (per the trace), the recorder dumps on its own. Zero
	// disables the trigger.
	InterruptionThreshold time.Duration
	// Profile includes a heap profile in each bundle.
	Profile bool
	// Now is the wall-clock source (default time.Now); tests pin it.
	Now func() time.Time
	// Log receives dump diagnostics; nil discards them.
	Log func(format string, args ...any)
}

const (
	// maxViews bounds the in-memory membership history.
	maxViews = 128
	// maxBundles bounds how many of this node's bundles are kept on disk;
	// older ones are pruned after each dump.
	maxBundles = 16
)

// viewRecord is one entry of the recorded membership history.
type viewRecord struct {
	At         time.Time `json:"at"`
	HLCWall    int64     `json:"hlc_wall,omitempty"`
	HLCLogical uint32    `json:"hlc_logical,omitempty"`
	Ring       string    `json:"ring"`
	Members    []string  `json:"members"`
}

// FlightManifest describes one spilled bundle.
type FlightManifest struct {
	Node   string    `json:"node"`
	Seq    int       `json:"seq"`
	Reason string    `json:"reason"`
	At     time.Time `json:"at"`
	// HLCWall/HLCLogical are the node's HLC at dump time; zero when no clock
	// was armed.
	HLCWall    int64  `json:"hlc_wall,omitempty"`
	HLCLogical uint32 `json:"hlc_logical,omitempty"`
	// MaxSkewNS is the largest wall-clock skew the node's HLC observed.
	MaxSkewNS int64 `json:"max_skew_ns,omitempty"`
	// Events is how many trace events the bundle holds; EventsDropped how
	// many older ones the ring had already overwritten.
	Events        int      `json:"events"`
	EventsDropped uint64   `json:"events_dropped"`
	Views         int      `json:"views"`
	Files         []string `json:"files"`
}

// FlightRecorder is the black box. A nil *FlightRecorder is a valid,
// disabled recorder: every method is a no-op, so wiring can be
// unconditional. All methods are safe for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	cfg   FlightConfig
	views []viewRecord
	seq   int
}

// NewFlightRecorder builds a recorder; cfg.Dir and cfg.Node are required.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &FlightRecorder{cfg: cfg}
}

func (f *FlightRecorder) logf(format string, args ...any) {
	if f.cfg.Log != nil {
		f.cfg.Log(format, args...)
	}
}

// RecordView appends one membership installation to the bounded history and
// evaluates the interruption trigger: if the trace shows this node entered
// discovery more than InterruptionThreshold before this install, the
// failover was slow enough to auto-preserve and the recorder dumps in the
// background.
func (f *FlightRecorder) RecordView(ring string, members []string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	rec := viewRecord{At: f.cfg.Now(), Ring: ring, Members: append([]string(nil), members...)}
	if ts := f.cfg.Tracer.clock().latest(); !ts.IsZero() {
		rec.HLCWall, rec.HLCLogical = ts.Wall, ts.Logical
	}
	f.views = append(f.views, rec)
	if len(f.views) > maxViews {
		f.views = f.views[len(f.views)-maxViews:]
	}
	threshold := f.cfg.InterruptionThreshold
	f.mu.Unlock()

	if threshold <= 0 {
		return
	}
	if gap, ok := f.lastReconfigGap(rec.At); ok && gap >= threshold {
		// Off the caller's goroutine: RecordView runs on the protocol loop
		// and a dump is file I/O.
		go f.Dump(fmt.Sprintf("interruption:%v", gap.Round(time.Millisecond)))
	}
}

// lastReconfigGap scans the trace tail for the newest discovery entry
// (gather-enter) by this node and returns how long before at it happened.
func (f *FlightRecorder) lastReconfigGap(at time.Time) (time.Duration, bool) {
	evs := f.cfg.Tracer.Snapshot()
	for i := len(evs) - 1; i >= 0; i-- {
		ev := evs[i]
		if ev.Kind == KindGatherEnter && ev.Node == f.cfg.Node {
			return at.Sub(ev.At), true
		}
	}
	return 0, false
}

// sanitizeNode makes a daemon identity ("127.0.0.1:4803") filesystem-safe.
func sanitizeNode(node string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ':', '/', '\\', ' ':
			return '_'
		}
		return r
	}, node)
}

// Dump spills one bundle and returns its directory. The bundle appears
// atomically: everything is written into a hidden temporary directory that
// is renamed into place only once complete, so a concurrent wacktrace scan
// never reads a half-written bundle. Concurrent triggers serialize; each
// gets its own bundle.
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	// Skip over bundle names a previous incarnation of this daemon left
	// behind: after a restart the in-memory sequence starts over, but the
	// directory may still hold the crashed process's bundles.
	f.seq++
	for {
		if _, err := os.Stat(filepath.Join(f.cfg.Dir, fmt.Sprintf("%s-%04d", sanitizeNode(f.cfg.Node), f.seq))); err != nil {
			break
		}
		f.seq++
	}
	man := FlightManifest{
		Node:   f.cfg.Node,
		Seq:    f.seq,
		Reason: reason,
		At:     f.cfg.Now(),
		Views:  len(f.views),
	}
	events := f.cfg.Tracer.Snapshot()
	man.Events = len(events)
	man.EventsDropped = f.cfg.Tracer.Dropped()
	if clk := f.cfg.Tracer.clock(); clk != nil {
		last := clk.latest()
		man.HLCWall, man.HLCLogical = last.Wall, last.Logical
		man.MaxSkewNS = int64(clk.maxSkew())
	}

	name := fmt.Sprintf("%s-%04d", sanitizeNode(f.cfg.Node), f.seq)
	final := filepath.Join(f.cfg.Dir, name)
	tmp := filepath.Join(f.cfg.Dir, ".tmp-"+name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		f.logf("flight: dump %s: %v", reason, err)
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	write := func(file string, fn func(*os.File) error) error {
		fh, err := os.Create(filepath.Join(tmp, file))
		if err != nil {
			return err
		}
		if err := fn(fh); err != nil {
			fh.Close()
			return fmt.Errorf("%s: %w", file, err)
		}
		if err := fh.Close(); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		man.Files = append(man.Files, file)
		return nil
	}

	err := write(BundleTrace, func(fh *os.File) error {
		return WriteNDJSON(fh, events)
	})
	if err == nil {
		err = write(bundleMetrics, func(fh *os.File) error {
			return metrics.WritePrometheus(fh, f.cfg.Registry.Snapshot())
		})
	}
	if err == nil {
		err = write(bundleViews, func(fh *os.File) error {
			enc := json.NewEncoder(fh)
			enc.SetIndent("", "  ")
			views := f.views
			if views == nil {
				views = []viewRecord{}
			}
			return enc.Encode(views)
		})
	}
	if err == nil && f.cfg.Config != "" {
		err = write(bundleConfig, func(fh *os.File) error {
			_, werr := fh.WriteString(f.cfg.Config)
			return werr
		})
	}
	if err == nil && f.cfg.Profile {
		err = write(bundleHeap, func(fh *os.File) error {
			return pprof.Lookup("heap").WriteTo(fh, 0)
		})
	}
	if err == nil {
		err = write(ManifestName, func(fh *os.File) error {
			enc := json.NewEncoder(fh)
			enc.SetIndent("", "  ")
			return enc.Encode(man)
		})
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		f.logf("flight: dump %s: %v", reason, err)
		return "", err
	}
	f.logf("flight: dumped bundle %s (%s): %d events, %d views", final, reason, man.Events, man.Views)
	f.pruneLocked()
	return final, nil
}

// pruneLocked deletes this node's oldest bundles beyond maxBundles.
func (f *FlightRecorder) pruneLocked() {
	prefix := sanitizeNode(f.cfg.Node) + "-"
	entries, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return
	}
	var mine []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), prefix) {
			mine = append(mine, e.Name())
		}
	}
	if len(mine) <= maxBundles {
		return
	}
	sort.Strings(mine) // zero-padded seq: lexicographic == chronological
	for _, name := range mine[:len(mine)-maxBundles] {
		os.RemoveAll(filepath.Join(f.cfg.Dir, name))
	}
}
