package main

import (
	"sort"

	"repro/internal/scalereport"
)

// pct is the benchmark's one percentile: the program's own nearest-rank
// estimator, so a figure here reads the same as in a gridload report.
func pct(samples []float64, q float64) float64 {
	return scalereport.Percentile(samples, q)
}

// median is pct(samples, 0.5).
func median(samples []float64) float64 { return pct(samples, 0.5) }

// ratio returns num/den, or 0 when the base is empty. Callers print the
// base next to the ratio, so a 0 over an empty base is never ambiguous.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usefulRatio is useful/(useful+wasted) with its base, the shape of
// every "how much of this layer's work paid off" metric.
func usefulRatio(useful, wasted float64) (r, base float64) {
	base = useful + wasted
	return ratio(useful, base), base
}

// sortedKeys returns m's keys in order, for stable report output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
