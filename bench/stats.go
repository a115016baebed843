package main

import (
	"sort"
	"time"
)

// percentiles returns the given percentiles (0..100) of vs by linear
// interpolation between order statistics, the rule Python's
// statistics.quantiles(method="inclusive") and numpy's default use. It
// sorts one copy; an empty input yields zeros.
func percentiles(vs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(vs) == 0 {
		return out
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	for i, q := range qs {
		pos := q / 100 * float64(len(s)-1)
		lo := int(pos)
		if lo >= len(s)-1 {
			out[i] = s[len(s)-1]
			continue
		}
		out[i] = s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return out
}

func percentile(vs []float64, q float64) float64 { return percentiles(vs, q)[0] }

func median(vs []float64) float64 { return percentile(vs, 50) }

func maxOf(vs []float64) float64 {
	m := 0.0
	for i, v := range vs {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

func minOf(vs []float64) float64 {
	m := 0.0
	for i, v := range vs {
		if i == 0 || v < m {
			m = v
		}
	}
	return m
}

// minOfPasses reduces per-pass, per-op host times to one time per op: the
// minimum over the passes. Every op is deterministic, so the fastest
// observation is the one least disturbed by the machine's other tenants.
func minOfPasses(passes [][]time.Duration) []time.Duration {
	if len(passes) == 0 {
		return nil
	}
	out := append([]time.Duration(nil), passes[0]...)
	for _, p := range passes[1:] {
		for i, d := range p {
			if d < out[i] {
				out[i] = d
			}
		}
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
