package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func TestPctIsNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := pct(s, c.q); got != c.want {
			t.Errorf("pct(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := pct(nil, 0.5); got != 0 {
		t.Errorf("pct of no samples = %v, want 0", got)
	}
	if s[0] != 5 {
		t.Error("pct reordered its input")
	}
}

func TestRatios(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1,4) = %v", got)
	}
	r, base := usefulRatio(3, 9)
	if r != 0.25 || base != 12 {
		t.Errorf("usefulRatio(3,9) = %v base %v, want 0.25 base 12", r, base)
	}
}

// TestScrapeQuantileMatchesHistogram: a histogram read back from its
// Prometheus rendering gives the same quantiles as the live histogram.
func TestScrapeQuantileMatchesHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("grid_service_queue_wait_seconds", "wait", nil)
	for i := 0; i < 500; i++ {
		h.Observe(float64(i%97) * 0.0007)
	}
	h.Observe(99) // +Inf bucket
	reg.Counter("grid_criticalworks_builds_total", "b", telemetry.L("result", "ok")).Add(3)
	reg.Counter("grid_criticalworks_builds_total", "b", telemetry.L("result", "infeasible")).Add(7)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if got, want := s.quantile("grid_service_queue_wait_seconds", q), h.Quantile(q); got != want {
			t.Errorf("q=%v: scraped %v, live %v", q, got, want)
		}
	}
	if got := s.sum("grid_criticalworks_builds_total"); got != 10 {
		t.Errorf("builds sum = %v, want 10", got)
	}
	if got := s.sum("grid_criticalworks_builds_total", "result", "ok"); got != 3 {
		t.Errorf("ok builds = %v, want 3", got)
	}
	if !math.IsNaN(s.quantile("absent", 0.5)) {
		t.Error("quantile of an absent histogram should be NaN")
	}
	s.add(s)
	if got := s.sum("grid_criticalworks_builds_total"); got != 20 {
		t.Errorf("after add, builds sum = %v, want 20", got)
	}
}

func TestParseLabelsEscapes(t *testing.T) {
	got, err := parseLabels(`a="x\"y",b="p\\q"`)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != `x"y` || got["b"] != `p\q` {
		t.Errorf("labels = %q", got)
	}
	if _, err := parseLabels(`a="open`); err == nil {
		t.Error("unterminated label value accepted")
	}
}

func TestCheckOverlapsFiresOnDoctoredCalendar(t *testing.T) {
	ok := map[string][]simtime.Interval{"n1": {{Start: 0, End: 5}, {Start: 5, End: 9}}}
	if p := checkOverlaps(ok); p.n != 0 {
		t.Fatalf("adjacent reservations flagged: %v", p.msgs)
	}
	bad := map[string][]simtime.Interval{"n1": {{Start: 5, End: 9}, {Start: 0, End: 6}}}
	if p := checkOverlaps(bad); p.n != 1 {
		t.Fatalf("overlap not caught: %+v", p)
	}
}

func TestCheckDeadlinesAndRecovery(t *testing.T) {
	if p := checkDeadlines([]finished{{"a", 10, 10}, {"b", 11, 10}}); p.n != 1 {
		t.Errorf("late completion: %+v", p)
	}
	final := map[string]string{"a": "completed", "b": "rejected"}
	if p := checkRecovered(final, map[string]string{"a": "completed", "b": "rejected"}); p.n != 0 {
		t.Errorf("clean recovery flagged: %v", p.msgs)
	}
	if p := checkRecovered(final, map[string]string{"a": "queued"}); p.n != 2 {
		t.Errorf("lost and stale jobs: %+v", p)
	}
}

func TestCheckAccounting(t *testing.T) {
	l := newLedger()
	l.offer("a", outAccepted)
	l.offer("b", outRefused)
	l.offer("c", outRefused)
	l.terminal("a", "completed")
	l.terminal("c", "rejected") // infeasible refusals are ledgered
	if p := checkAccounting(l); p.n != 0 {
		t.Fatalf("clean ledger flagged: %v", p.msgs)
	}
	l.terminal("a", "completed")
	l.terminal("ghost", "completed")
	if p := checkAccounting(l); p.n != 2 {
		t.Fatalf("double terminal and unknown job: %+v", p)
	}
}

// TestServerErrorFailsRun: a 5xx answer is an error outcome, and a ledger
// holding one fails the gate.
func TestServerErrorFailsRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	out := post(srv.Client(), srv.URL, []byte(`{}`))
	if out != outError {
		t.Fatalf("500 classified %q", out)
	}
	for code, want := range map[int]string{202: outAccepted, 422: outRefused, 429: outRefused, 503: outRefused, 400: outError, 409: outError} {
		if got := classifyStatus(code); got != want {
			t.Errorf("status %d classified %q, want %q", code, got, want)
		}
	}
	l := newLedger()
	l.offer("a", out)
	if p := checkAccounting(l); p.n != 1 {
		t.Fatalf("5xx not caught: %+v", p)
	}
	p := newPhase()
	p.addLedger(l)
	if res := verdict(newReport(), p); res.Correct || res.Failed != 1 {
		t.Fatalf("verdict = %+v, want a failed run", res)
	}
}

// TestGateCatchesLostJob runs a real round and then drops one accepted
// job's terminal state from the benchmark's ledger.
func TestGateCatchesLostJob(t *testing.T) {
	r, err := setupInproc(burstyOverload, roundSeed(3, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.run(nil, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.verify(out)
	if out.checks.n != 0 {
		t.Fatalf("clean round failed the gate: %v", out.checks.msgs)
	}
	for _, id := range r.led.offered {
		if r.led.outcome[id] == outAccepted {
			delete(r.led.terminals, id)
			break
		}
	}
	again := &inprocOut{}
	r.verify(again)
	if again.checks.n == 0 {
		t.Fatal("lost accepted job passed the gate")
	}
}

// TestSameSeedSameWork: same-seed rounds of the in-process workloads give
// identical fates and identical exact work counters.
func TestSameSeedSameWork(t *testing.T) {
	counters := []struct{ name, k, v string }{
		{"grid_criticalworks_builds_total", "result", "ok"},
		{"grid_criticalworks_builds_total", "result", "infeasible"},
		{"grid_criticalworks_evaluations_total", "", ""},
		{"grid_placer_commits_total", "", ""},
		{"grid_placer_conflicts_total", "", ""},
		{"grid_repair_hits_total", "", ""},
		{"grid_repair_splices_total", "", ""},
		{"grid_repair_misses_total", "", ""},
		{"grid_repair_full_rebuilds_total", "", ""},
		{"grid_metasched_events_total", "kind", "reallocate"},
	}
	for name, shape := range map[string]inprocShape{"bursty-overload": burstyOverload, "outage-placers": outagePlacers} {
		var runs [2]*inprocOut
		for i := range runs {
			r, err := setupInproc(shape, roundSeed(5, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if runs[i], err = r.run(nil, -1, nil); err != nil {
				t.Fatal(err)
			}
			r.verify(runs[i])
			if runs[i].checks.n != 0 {
				t.Fatalf("%s: gate failed: %v", name, runs[i].checks.msgs)
			}
		}
		a, b := runs[0], runs[1]
		if ja, jb := mustJSON(t, a.fates), mustJSON(t, b.fates); ja != jb {
			t.Errorf("%s: fates differ: %s vs %s", name, ja, jb)
		}
		for _, c := range counters {
			kv := []string{}
			if c.k != "" {
				kv = []string{c.k, c.v}
			}
			if va, vb := a.prom.sum(c.name, kv...), b.prom.sum(c.name, kv...); va != vb {
				t.Errorf("%s: %s%v = %v vs %v", name, c.name, kv, va, vb)
			}
		}
		if a.prom.sum("grid_criticalworks_builds_total") == 0 {
			t.Errorf("%s: no builds counted", name)
		}
		if shape.placers > 1 && a.prom.sum("grid_placer_commits_total") == 0 {
			t.Errorf("%s: placers never committed", name)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRoundSeedsStratifySizes(t *testing.T) {
	sum := 0
	for r := 0; r < 12; r++ {
		sum += roundNodes(r)
	}
	if sum != 12*25 {
		t.Errorf("12 rounds average %v nodes, want 25", float64(sum)/12)
	}
	if roundSeed(9, 4) != roundSeed(9, 4) || roundSeed(9, 4) == roundSeed(10, 4) {
		t.Error("round seeds are not a function of (seed, round)")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "bench.process", start: 0, end: 100},
		{id: 2, name: "service.process", start: 5, end: 95},  // root: re-linked under 1
		{id: 3, name: "metasched.adopt", start: 10, end: 90}, // root: re-linked under 2
		{id: 4, parent: 3, name: "strategy.generate", start: 10, end: 80},
		{id: 5, parent: 4, name: "criticalworks.build", start: 20, end: 50},
		{id: 6, parent: 4, name: "criticalworks.build", start: 40, end: 70}, // overlaps 5
		{id: 7, name: "bench.post", start: 200, end: 260, job: "j"},
		{id: 8, name: "service.submit", start: 210, end: 250, job: "j"},
		{id: 9, name: "service.submit", start: 300, end: 310, job: "k"}, // no enclosing POST
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"bench.process":       10,
		"service.process":     10,
		"metasched.adopt":     10,
		"strategy.generate":   20, // 70 minus the union [20,70)
		"criticalworks.build": 60,
		"bench.post":          20,
		"service.submit":      50,
	}
	for name, ns := range want {
		if got[name].selfNs != ns {
			t.Errorf("%s self = %d, want %d", name, got[name].selfNs, ns)
		}
	}
	if got["criticalworks.build"].count != 2 || got["criticalworks.build"].totalNs != 60 {
		t.Errorf("build totals = %+v", got["criticalworks.build"])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, command %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	names := map[string]bool{}
	for _, w := range b.Workloads {
		names[w.Name] = true
	}
	for _, w := range []string{"bursty-overload", "durable-http", "outage-placers"} {
		if !names[w] {
			t.Errorf("workload %s missing from BENCHMARK.json", w)
		}
	}
}
