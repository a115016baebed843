package experiment

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"wackamole/internal/metrics"
)

// Stat summarizes a sample of durations.
type Stat struct {
	N              int
	Mean, Min, Max time.Duration
	P50, P99       time.Duration
	StdDev         time.Duration
}

// summarize computes a Stat over ds.
func summarize(ds []time.Duration) Stat {
	if len(ds) == 0 {
		return Stat{}
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	mean := sum / time.Duration(len(sorted))
	var varSum float64
	for _, d := range sorted {
		diff := float64(d - mean)
		varSum += diff * diff
	}
	std := time.Duration(0)
	if len(sorted) > 1 {
		std = time.Duration(sqrt(varSum / float64(len(sorted)-1)))
	}
	return Stat{
		N:      len(sorted),
		Mean:   mean,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    metrics.Percentile(sorted, 50),
		P99:    metrics.Percentile(sorted, 99),
		StdDev: std,
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// seconds formats a duration as seconds with millisecond precision, the
// unit of the paper's Figure 5 axis.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// Table renders rows as a GitHub-style markdown table.
func Table(header []string, rows [][]string) string {
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(c)
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// rowTable builds a renderer emitting one table line per row: the point's
// identifying cells followed by the statistics stats picks.
func rowTable(header []string, stats func(Row) []string) func([]Row) string {
	return func(rows []Row) string {
		lines := make([][]string, len(rows))
		for i, r := range rows {
			lines[i] = append(append([]string(nil), r.Cols...), stats(r)...)
		}
		return Table(header, lines)
	}
}

// meanMinMax is the statistics half of the three-number comparison tables.
func meanMinMax(r Row) []string {
	return []string{strconv.Itoa(r.Stat.N), seconds(r.Stat.Mean), seconds(r.Stat.Min), seconds(r.Stat.Max)}
}

// seeds returns n deterministic seeds derived from base.
func seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)*7919 // spaced by a prime to avoid overlap
	}
	return out
}
