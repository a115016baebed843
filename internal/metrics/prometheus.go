package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// prometheus.go renders a registry snapshot in the Prometheus text
// exposition format, version 0.0.4 — the one format every scraping and
// alerting stack ingests. Families emit deterministically (sorted by name,
// series sorted by label signature), histograms expose cumulative
// `_bucket{le=...}` series plus `_sum` and `_count`, and the writer never
// touches live instruments, so serving an exposition cannot perturb the
// protocol it observes.

// ContentType is the HTTP Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeHelp escapes a HELP annotation (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the shortest way that round-trips.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...}; extra pairs (the histogram `le`) append
// after the series' own labels. Returns "" for a bare series.
func labelString(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus writes the snapshot in text exposition format 0.0.4.
func WritePrometheus(w io.Writer, snap Snapshot) error {
	for _, f := range snap.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series {
			switch f.Kind {
			case KindCounter, kindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, labelString(s.Labels), formatValue(s.Value)); err != nil {
					return err
				}
			case kindHistogram:
				if s.Hist == nil {
					continue
				}
				var cum uint64
				for i := 0; i < numBuckets; i++ {
					cum += s.Hist.Counts[i]
					le := formatValue(bucketBoundaries[i])
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.Name, labelString(s.Labels, L("le", le)), cum); err != nil {
						return err
					}
				}
				cum += s.Hist.Counts[numBuckets]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.Name, labelString(s.Labels, L("le", "+Inf")), cum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
					f.Name, labelString(s.Labels), formatValue(s.Hist.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
					f.Name, labelString(s.Labels), cum); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
