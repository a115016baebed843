package experiment

import (
	"encoding/json"
	"io"

	"wackamole/internal/experiment/runner"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// json.go renders rows as machine-readable records (one JSON object per
// line, the shape benchmark-archival tooling ingests), so the evaluation can
// be diffed, plotted and regression-tracked without parsing markdown. The
// -json flag of cmd/wacksim is the front end.

// rowJSON is the wire form of a Row.
type rowJSON struct {
	Experiment string `json:"experiment"`
	Point      string `json:"point"`
	// Unit names the measured quantity (what the *_s statistics are).
	Unit   string `json:"unit"`
	Trials int    `json:"trials"`
	Errors int    `json:"errors"`
	// The measured distribution in seconds.
	MeanSec   float64 `json:"mean_s"`
	MinSec    float64 `json:"min_s"`
	P50Sec    float64 `json:"p50_s"`
	P99Sec    float64 `json:"p99_s"`
	MaxSec    float64 `json:"max_s"`
	StdDevSec float64 `json:"stddev_s"`
	// Extra carries experiment-specific scalars (e.g. false
	// reconfigurations per minute for the load sweep).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Metrics sums the per-trial protocol-activity counters of the
	// point's successful trials.
	Metrics runner.Metrics `json:"metrics"`
	// PerTrial holds per-trial rows — present only when the sweep ran with
	// tracing, which is what makes per-trial phase breakdowns available.
	PerTrial []trialJSON `json:"per_trial,omitempty"`
}

// trialJSON is one traced trial within a point: its seed, measured value
// and fail-over phase breakdown. The phases partition the measured
// interruption, so they sum to value_s.
type trialJSON struct {
	Seed     int64         `json:"seed"`
	ValueSec float64       `json:"value_s"`
	Phases   obs.Breakdown `json:"phases"`
	Events   int           `json:"events"`
	// Latency summarizes the trial's protocol latency histograms (present
	// only when the trial carried a metrics registry).
	Latency *latencyJSON `json:"latency,omitempty"`
}

// latencyJSON is the per-trial protocol latency summary, quantiles estimated
// from the trial's cluster-wide (all nodes merged) latency histograms.
type latencyJSON struct {
	TokenRotationP50Sec float64 `json:"token_rotation_p50_s"`
	TokenRotationP99Sec float64 `json:"token_rotation_p99_s"`
	TokenRotationObs    uint64  `json:"token_rotation_obs"`
	DeliveryP99Sec      float64 `json:"delivery_p99_s"`
	DeliveryObs         uint64  `json:"delivery_obs"`
	InstallP50Sec       float64 `json:"membership_install_p50_s"`
	StateSyncP50Sec     float64 `json:"state_sync_p50_s"`
}

// latencyRow summarizes a trial's registry snapshot; nil when the snapshot
// is empty (untraced trial).
func latencyRow(snap metrics.Snapshot) *latencyJSON {
	if len(snap.Families) == 0 {
		return nil
	}
	rot := snap.MergedHistogram("gcs_token_rotation_seconds")
	del := snap.MergedHistogram("gcs_delivery_seconds")
	inst := snap.MergedHistogram("gcs_membership_install_seconds")
	sync := snap.MergedHistogram("core_state_sync_seconds")
	return &latencyJSON{
		TokenRotationP50Sec: rot.Quantile(0.50),
		TokenRotationP99Sec: rot.Quantile(0.99),
		TokenRotationObs:    rot.Count(),
		DeliveryP99Sec:      del.Quantile(0.99),
		DeliveryObs:         del.Count(),
		InstallP50Sec:       inst.Quantile(0.50),
		StateSyncP50Sec:     sync.Quantile(0.50),
	}
}

// trialRows extracts the per-trial rows of a point's traced samples.
func trialRows(samples []runner.Sample) []trialJSON {
	var out []trialJSON
	for _, s := range samples {
		if s.Trace == nil {
			continue
		}
		out = append(out, trialJSON{
			Seed:     s.Seed,
			ValueSec: s.Value.Seconds(),
			Phases:   s.Trace.Phases,
			Events:   len(s.Trace.Events),
			Latency:  latencyRow(s.Latency),
		})
	}
	return out
}

// wire converts the row into its NDJSON form. Rows of a traced sweep
// additionally carry one entry per trial with its phase breakdown.
func (r Row) wire() rowJSON {
	return rowJSON{
		Experiment: r.Experiment,
		Point:      r.Point,
		Unit:       r.Unit,
		Trials:     r.Stat.N,
		Errors:     r.Errors,
		MeanSec:    r.Stat.Mean.Seconds(),
		MinSec:     r.Stat.Min.Seconds(),
		P50Sec:     r.Stat.P50.Seconds(),
		P99Sec:     r.Stat.P99.Seconds(),
		MaxSec:     r.Stat.Max.Seconds(),
		StdDevSec:  r.Stat.StdDev.Seconds(),
		Extra:      r.Extra,
		Metrics:    r.Metrics,
		PerTrial:   trialRows(r.Samples),
	}
}

// WriteNDJSON writes one JSON object per row (newline-delimited JSON).
func WriteNDJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r.wire()); err != nil {
			return err
		}
	}
	return nil
}
