package experiment

import (
	"encoding/json"
	"io"
	"time"

	"wackamole/internal/obs"
)

// trace.go writes the -trace output of cmd/wacksim: an
// NDJSON stream interleaving one "trial" summary record per traced trial
// with the trial's "event" records, in deterministic (point, seed,
// event-sequence) order.
// The stream is self-describing — every line names its record type, point
// and seed — so it can be split, grepped and joined without side tables.

// TraceTrialRecord summarizes one traced trial. GapStart/GapEnd/Target let
// offline analyzers (cmd/wacktrace) explain the fail-over again from the
// event lines that follow the record.
// Dropped counts the trial's events its ring evicted; a trial that lost
// any cannot be re-derived from the lines that follow it.
type TraceTrialRecord struct {
	Record     string        `json:"record"` // "trial"
	Experiment string        `json:"experiment"`
	Point      string        `json:"point"`
	Seed       int64         `json:"seed"`
	ValueSec   float64       `json:"value_s"`
	Phases     obs.Breakdown `json:"phases"`
	Events     int           `json:"events"`
	Dropped    uint64        `json:"dropped,omitempty"`
	GapStart   string        `json:"gap_start,omitempty"`
	GapEnd     string        `json:"gap_end,omitempty"`
	Target     string        `json:"target,omitempty"`
}

// traceEventRecord is one event line, tagged with its trial.
type traceEventRecord struct {
	Record string `json:"record"` // "event"
	Point  string `json:"point"`
	Seed   int64  `json:"seed"`
	Seq    uint64 `json:"seq"`
	At     string `json:"at"`
	Source string `json:"source"`
	Kind   string `json:"kind"`
	Node   string `json:"node,omitempty"`
	Group  string `json:"group,omitempty"`
	Addr   string `json:"addr,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// WriteTrace writes the traced trials of a sweep's rows as the interleaved
// trial/event NDJSON stream. Untraced samples produce no output.
func WriteTrace(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		for _, s := range r.Samples {
			if s.Trace == nil {
				continue
			}
			if err := enc.Encode(TraceTrialRecord{
				Record:     "trial",
				Experiment: r.Experiment,
				Point:      r.Point,
				Seed:       s.Seed,
				ValueSec:   s.Value.Seconds(),
				Phases:     s.Trace.Phases,
				Events:     len(s.Trace.Events),
				Dropped:    s.Trace.Dropped,
				GapStart:   s.Trace.GapStart.Format(time.RFC3339Nano),
				GapEnd:     s.Trace.GapEnd.Format(time.RFC3339Nano),
				Target:     s.Trace.Target,
			}); err != nil {
				return err
			}
			for _, e := range s.Trace.Events {
				if err := enc.Encode(traceEventRecord{
					Record: "event",
					Point:  r.Point,
					Seed:   s.Seed,
					Seq:    e.Seq,
					At:     e.At.Format(time.RFC3339Nano),
					Source: e.Source.String(),
					Kind:   e.Kind.String(),
					Node:   e.Node,
					Group:  e.Group,
					Addr:   e.Addr,
					Detail: e.Detail,
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
