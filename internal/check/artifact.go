package check

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"wackamole/internal/gcs"
	"wackamole/internal/invariant"
	"wackamole/internal/obs"
)

// Artifact is the replayable record of a checker finding: the (possibly
// shrunk) schedule, everything needed to reconstruct the run options, and
// the violation the run produced. Artifacts marshal to a stable JSON shape;
// the structured event trace travels separately as NDJSON (see WriteTrace)
// because it is bulky and line-oriented.
type Artifact struct {
	Schedule         Schedule             `json:"schedule"`
	Options          OptionsDoc           `json:"options"`
	Violation        *invariant.Violation `json:"violation,omitempty"`
	ShrinkIterations int                  `json:"shrink_iterations,omitempty"`
}

// OptionsDoc is the serialized form of the Options fields that affect
// execution. Durations travel as integer nanoseconds so reconstruction is
// exact. The run's timing bounds derive from the gcs timeouts; older
// artifacts that record them as balance_ns, settle_ns, stability_ns and
// jitter_window_ns (always the derived values) still load, the decoder
// skipping all four.
type OptionsDoc struct {
	FaultDetectNS  int64  `json:"fault_detect_ns"`
	HeartbeatNS    int64  `json:"heartbeat_ns"`
	DiscoveryNS    int64  `json:"discovery_ns"`
	Representative bool   `json:"representative,omitempty"`
	Mutation       string `json:"mutation,omitempty"`
	// Detector names the failure-detection regime ("fixed" or "phi");
	// absent means fixed, so artifacts from before the field existed
	// replay unchanged. Detection timing shifts the whole schedule, so a
	// phi artifact replayed under fixed would not reproduce. The phi
	// detector's threshold and scan period are constants; older artifacts
	// that record them as phi_threshold and phi_check_ns still load, the
	// decoder skipping both.
	Detector string `json:"detector,omitempty"`
}

// NewArtifact packages a report and the options that produced it. The
// violation's stable JSON wire shape (oracle/detail/step/at_ns) is defined
// on invariant.Violation.
func NewArtifact(rep *Report, opts Options, shrinkIterations int) Artifact {
	opts = opts.withDefaults()
	doc := OptionsDoc{
		FaultDetectNS:  opts.GCS.FaultDetectTimeout.Nanoseconds(),
		HeartbeatNS:    opts.GCS.HeartbeatInterval.Nanoseconds(),
		DiscoveryNS:    opts.GCS.DiscoveryTimeout.Nanoseconds(),
		Representative: opts.RepresentativeDecisions,
	}
	if opts.Mutation != nil {
		doc.Mutation = opts.Mutation.String()
	}
	if opts.GCS.Detector != gcs.DetectorFixed {
		doc.Detector = opts.GCS.Detector.String()
	}
	return Artifact{
		Schedule:         rep.Schedule,
		Options:          doc,
		Violation:        rep.Violation,
		ShrinkIterations: shrinkIterations,
	}
}

// runOptions reconstructs execution options from the artifact.
func (a Artifact) runOptions() (Options, error) {
	mut, err := ParseMutation(a.Options.Mutation)
	if err != nil {
		return Options{}, err
	}
	var det gcs.Detector
	if a.Options.Detector != "" {
		if det, err = gcs.ParseDetector(a.Options.Detector); err != nil {
			return Options{}, err
		}
	}
	return Options{
		GCS: gcs.Config{
			FaultDetectTimeout: time.Duration(a.Options.FaultDetectNS),
			HeartbeatInterval:  time.Duration(a.Options.HeartbeatNS),
			DiscoveryTimeout:   time.Duration(a.Options.DiscoveryNS),
			Detector:           det,
		},
		RepresentativeDecisions: a.Options.Representative,
		Mutation:                mut,
	}.withDefaults(), nil
}

// WriteArtifact writes a as indented JSON.
func WriteArtifact(w io.Writer, a Artifact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ReadArtifact parses an artifact written by WriteArtifact.
func ReadArtifact(r io.Reader) (Artifact, error) {
	var a Artifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return Artifact{}, fmt.Errorf("check: parse artifact: %w", err)
	}
	return a, nil
}

// WriteTrace writes a report's structured event stream as NDJSON (one
// obs.Event per line), the same wire shape wacksim and wacktrace use.
func WriteTrace(w io.Writer, rep *Report) error {
	return obs.WriteNDJSON(w, rep.Trace)
}

// Replay re-executes an artifact's schedule under its recorded options and
// reports whether the outcome — violation or clean pass — matches the
// artifact exactly (same oracle, same detail, same step, same virtual
// time). The simulation is deterministic, so a faithful artifact always
// matches.
func Replay(a Artifact) (*Report, bool, error) {
	opts, err := a.runOptions()
	if err != nil {
		return nil, false, err
	}
	rep, err := Run(a.Schedule, opts)
	if err != nil {
		return nil, false, err
	}
	return rep, a.Violation.Equal(rep.Violation), nil
}
