package check

import "fmt"

// shrinkBudget bounds how many re-runs a shrink may spend.
const shrinkBudget = 200

// Shrink delta-debugs a violating schedule down to a locally minimal event
// list: the classic ddmin loop, removing ever-smaller chunks and keeping
// any candidate that still trips the same oracle. The returned report is
// the run of the minimal schedule; iterations counts checker re-runs
// (also accumulated into check_shrink_iterations_total when opts.Metrics
// is set), at most shrinkBudget of them.
func Shrink(s Schedule, opts Options) (Schedule, *Report, int, error) {
	shrinkIters := opts.withDefaults().Metrics.Counter(
		"check_shrink_iterations_total", "checker re-runs spent minimizing counterexamples")

	rep, err := Run(s, opts)
	if err != nil {
		return s, nil, 0, err
	}
	if rep.Violation == nil {
		return s, rep, 0, fmt.Errorf("check: schedule does not violate, nothing to shrink")
	}
	oracle := rep.Violation.Oracle

	events := s.Events
	iterations := 0
	granularity := 2
	for len(events) > 0 {
		if granularity > len(events) {
			granularity = len(events)
		}
		chunk := (len(events) + granularity - 1) / granularity
		reduced := false
		for from := 0; from < len(events); from += chunk {
			if iterations >= shrinkBudget {
				return s.withEvents(events), rep, iterations, nil
			}
			to := from + chunk
			if to > len(events) {
				to = len(events)
			}
			cand := make([]Event, 0, len(events)-(to-from))
			cand = append(cand, events[:from]...)
			cand = append(cand, events[to:]...)
			iterations++
			shrinkIters.Inc()
			candRep, err := Run(s.withEvents(cand), opts)
			if err != nil {
				return s.withEvents(events), rep, iterations, err
			}
			if candRep.Violation != nil && candRep.Violation.Oracle == oracle {
				events, rep = cand, candRep
				if granularity > 2 {
					granularity--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if granularity >= len(events) {
				break
			}
			granularity *= 2
			if granularity > len(events) {
				granularity = len(events)
			}
		}
	}
	return s.withEvents(events), rep, iterations, nil
}
