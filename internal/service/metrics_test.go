package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusEndpoint scrapes GET /metrics after a lifecycle that
// drives every counter — accept, complete, reject, shed, infeasible,
// overloaded, revoke, resurrect and drain — and checks the exposition:
// correct content type, every uint64 field of the JSON snapshot equal to
// its series (the snapshot is a view over the registry, so the two can
// never drift), and the scheduler-layer families showing up through the
// shared registry.
func TestPrometheusEndpoint(t *testing.T) {
	s := newServer(t, Config{QueueCap: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	offer := func(name string, deadline int64, priority int, wantCode string) {
		t.Helper()
		if _, err := s.Submit(wireJob(name, deadline), "S1", priority); submitCode(err) != wantCode {
			t.Fatalf("submit %s: err = %v, want code %q", name, err, wantCode)
		}
	}
	offer("m1", 60, 0, "")
	offer("m2", 60, 0, "")
	offer("m3", 60, 0, CodeOverloaded) // queue full, nobody yields
	offer("m4", 60, 1, "")             // sheds m2
	offer("tight", 4, 0, CodeInfeasible)
	offer("tight", 4, 0, CodeDuplicate)
	s.Process(-1)
	s.Quiesce()
	offer("m5", 60, 0, "")
	if _, err := s.RevokeEpoch("m5", "moved", 1); err != nil {
		t.Fatalf("revoke m5: %v", err)
	}
	if _, err := s.Revoke("ghost", "tombstone"); err != nil {
		t.Fatalf("revoke ghost: %v", err)
	}
	if _, err := s.Resurrect(wireJob("m5", 60), "S1", 0, 2); err != nil {
		t.Fatalf("resurrect m5: %v", err)
	}
	offer("m6", 60, 0, "")
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	series := scrapeSeries(t, text)

	met := s.Metrics()
	tests := []struct {
		field, series string
	}{
		{"Submitted", "grid_service_submitted_total"},
		{"Accepted", "grid_service_accepted_total"},
		{"Completed", "grid_service_completed_total"},
		{"Rejected", "grid_service_rejected_total"},
		{"Shed", "grid_service_shed_total"},
		{"Infeasible", "grid_service_infeasible_total"},
		{"Overloaded", "grid_service_overloaded_total"},
		{"Drained", "grid_service_drained_total"},
		{"Revoked", "grid_service_revoked_total"},
		{"Resurrected", "grid_service_resurrected_total"},
		{"EventsFired", "grid_service_engine_events_fired"},
		{"JournalErrors", "grid_service_journal_errors_total"},
		{"QueueDepth", "grid_service_queue_depth"},
		{"QueueHighWater", "grid_service_queue_high_water"},
	}
	covered := map[string]bool{}
	v := reflect.ValueOf(met)
	for _, tc := range tests {
		covered[tc.field] = true
		f := v.FieldByName(tc.field)
		var want float64
		switch f.Kind() {
		case reflect.Uint64:
			want = float64(f.Uint())
		case reflect.Int:
			want = float64(f.Int())
		default:
			t.Fatalf("Metrics.%s has kind %s", tc.field, f.Kind())
		}
		got, ok := series[tc.series]
		if !ok {
			t.Errorf("Metrics.%s: exposition has no %s series", tc.field, tc.series)
			continue
		}
		if got != want {
			t.Errorf("Metrics.%s = %v but %s = %v", tc.field, want, tc.series, got)
		}
		// Every event the scenario drives must have moved its counter.
		if want == 0 && tc.field != "JournalErrors" && tc.field != "QueueDepth" {
			t.Errorf("Metrics.%s = 0: the scenario never exercised it", tc.field)
		}
	}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Type.Kind() == reflect.Uint64 && !covered[f.Name] {
			t.Errorf("Metrics.%s has no series in the agreement table", f.Name)
		}
	}
	if met.Submitted != 8 || met.Accepted != 5 || met.Completed != 2 || met.Rejected != 2 ||
		met.Drained != 2 || met.Revoked != 2 || met.Resurrected != 1 {
		t.Errorf("scenario counts = %+v", met)
	}

	// The scheduler layer reports into the same registry the server owns.
	for _, family := range []string{
		"grid_metasched_events_total",
		"grid_criticalworks_builds_total",
		"grid_service_queue_wait_seconds_count",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing scheduler family %q\n%s", family, text)
		}
	}
}

// scrapeSeries parses the unlabelled samples of a Prometheus exposition
// into name → value.
func scrapeSeries(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out[fields[0]] = v
	}
	return out
}

// BenchmarkMetricsScrape backs the rebuild-per-scrape fix: the Prometheus
// endpoint streams straight from the registry's live atomics into the
// response writer — no intermediate metrics document is rebuilt per poll,
// so scrape cost is a function of series count only, never of how much
// traffic moved the counters. The allocs/op figure is the regression
// guard; it must stay bounded as instrumentation grows.
func BenchmarkMetricsScrape(b *testing.B) {
	s, err := New(Config{Env: testEnv(), QueueCap: 64})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := s.Submit(wireJob(benchName(i), 60), "S1", i%3); err != nil {
			b.Fatalf("submit: %v", err)
		}
	}
	s.Process(32)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/metrics", nil)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("scrape = %d", rec.Code)
		}
	}
}

// BenchmarkLegacyJSON measures the old JSON handler, which re-marshals
// its whole counters struct on every poll — kept as the baseline the
// Prometheus endpoint's per-series cost is judged against (the registry
// exposes ~20× more series than the legacy snapshot's eight fields).
func BenchmarkLegacyJSON(b *testing.B) {
	s, err := New(Config{Env: testEnv(), QueueCap: 64})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := s.Submit(wireJob(benchName(i), 60), "S1", i%3); err != nil {
			b.Fatalf("submit: %v", err)
		}
	}
	s.Process(32)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/metrics", nil)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("scrape = %d", rec.Code)
		}
	}
}

func benchName(i int) string { return "bench-" + strconv.Itoa(i) }
