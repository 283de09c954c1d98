package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// scrape is one parse of the Prometheus text exposition: the in-process
// registry's WritePrometheus output and gridd's GET /metrics read the same
// way. Series are keyed by their exposition text (name plus label set), so
// scrapes of several rounds add up series by series.
type scrape map[string]promSample

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the exposition format written by
// telemetry.Registry.WritePrometheus.
func parseProm(text []byte) (scrape, error) {
	out := scrape{}
	for n, line := range bytes.Split(text, []byte("\n")) {
		s := strings.TrimSpace(string(line))
		if s == "" || s[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(s, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, s)
		}
		key, raw := s[:sp], s[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		smp := promSample{name: key, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", n+1, s)
			}
			smp.name = key[:i]
			if smp.labels, err = parseLabels(key[i+1 : len(key)-1]); err != nil {
				return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
			}
		}
		out[key] = smp
	}
	return out, nil
}

// parseLabels reads `k="v",k2="v2"` with the exposition escapes.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed labels %q", s)
		}
		k := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out[k] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return out, nil
}

// add folds o into s series by series (counters, histogram buckets and
// sums all add; gauges are not read by the benchmark).
func (s scrape) add(o scrape) {
	for k, v := range o {
		if cur, ok := s[k]; ok {
			cur.value += v.value
			s[k] = cur
		} else {
			s[k] = v
		}
	}
}

// sum adds up every series of the family name whose labels include the
// given key/value pairs.
func (s scrape) sum(name string, kv ...string) float64 {
	total := 0.0
	for _, smp := range s {
		if smp.name != name || !hasLabels(smp.labels, kv) {
			continue
		}
		total += smp.value
	}
	return total
}

func hasLabels(labels map[string]string, kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// quantile estimates the q-th quantile of histogram family name, all its
// series pooled. It rebuilds the bucket counts in a telemetry.Histogram
// with the same bounds and asks telemetry.Histogram.Quantile, so the
// estimate is the one the program itself reports on /healthz. NaN when
// the histogram is empty or absent.
func (s scrape) quantile(name string, q float64) float64 {
	cum := map[float64]float64{}
	for _, smp := range s {
		if smp.name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(smp.labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += smp.value
	}
	if len(cum) == 0 {
		return math.NaN()
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	var bounds []float64
	for _, le := range les {
		if !math.IsInf(le, 1) {
			bounds = append(bounds, le)
		}
	}
	if len(bounds) == 0 {
		return math.NaN()
	}
	h := telemetry.NewRegistry().Histogram("rebuilt", "", bounds)
	prev := 0.0
	for _, le := range les {
		n := int(cum[le] - prev)
		prev = cum[le]
		for i := 0; i < n; i++ {
			h.Observe(le)
		}
	}
	return h.Quantile(q)
}
