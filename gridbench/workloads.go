package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/criticalworks"
	"repro/internal/jobio"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// phase accumulates the rounds of one half of a run: untraced (the
// end-to-end figures) or traced (span self times and tracing overhead).
type phase struct {
	offered, accepted, refused, errors, completed int
	costSum                                       float64
	measured, cpu                                 float64 // seconds
	allocBytes, mallocs                           float64
	gcShare, rssMB                                []float64
	setup, lat, late, drains                      []float64 // seconds
	perRound                                      []roundTotals
	process                                       float64 // seconds in Process calls
	prom                                          scrape
	self                                          map[string]layerSelf
	checks                                        problems
	// The first round's ledger, re-appended by the journal probe.
	records []service.Record
	wires   map[string]jobio.Job
}

func newPhase() *phase { return &phase{prom: scrape{}, self: map[string]layerSelf{}} }

func (p *phase) addLedger(l *ledger) {
	p.offered += len(l.offered)
	p.accepted += l.count(outAccepted)
	p.refused += l.count(outRefused)
	p.errors += len(l.offered) - l.count(outAccepted) - l.count(outRefused)
}

// roundTotals is one round's share of the end-to-end figures.
type roundTotals struct {
	offered, measured, cpu, allocBytes float64
	lat                                []float64
}

// addRound records one round's totals and latency samples.
func (p *phase) addRound(rt roundTotals) {
	p.measured += rt.measured
	p.cpu += rt.cpu
	p.allocBytes += rt.allocBytes
	p.lat = append(p.lat, rt.lat...)
	p.perRound = append(p.perRound, rt)
}

// pairMedian evaluates f on consecutive pairs of rounds — (0,1), (2,3), …,
// each pair spanning the middle environment size (see roundNodes) — and
// returns the median, so a stall on a shared host that hits a few rounds
// moves the figure little. A run of one round is its own pair.
func (p *phase) pairMedian(f func(roundTotals) float64) float64 {
	var vals []float64
	for i := 0; i+1 < len(p.perRound); i += 2 {
		a, b := p.perRound[i], p.perRound[i+1]
		vals = append(vals, f(roundTotals{
			offered: a.offered + b.offered, measured: a.measured + b.measured,
			cpu: a.cpu + b.cpu, allocBytes: a.allocBytes + b.allocBytes,
			lat: append(append([]float64(nil), a.lat...), b.lat...),
		}))
	}
	if len(vals) == 0 && len(p.perRound) > 0 {
		vals = append(vals, f(p.perRound[0]))
	}
	return median(vals)
}

func (p *phase) addSpans(spans []span) {
	for name, ls := range selfTimes(spans) {
		cur := p.self[name]
		cur.count += ls.count
		cur.totalNs += ls.totalNs
		cur.selfNs += ls.selfNs
		p.self[name] = cur
	}
}

// roundSeed derives round r's input seed from the run seed. The
// generator draws each environment's size uniformly from 20 to 30 nodes,
// and size sets most of a round's cost, so rounds are stratified by it:
// round r takes the first derived seed whose environment has
// roundNodes(r) nodes. Every run then sees the same mix of sizes, and the
// run seed picks which environments and flows of each size.
func roundSeed(seed uint64, r int) uint64 {
	want := roundNodes(r)
	for k := uint64(0); ; k++ {
		s := splitmix(seed ^ splitmix(uint64(r)<<20|k))
		if workload.New(workload.Default(s)).Environment(2).NumNodes() == want {
			return s
		}
	}
}

// roundNodes pairs sizes around the middle of the generator's range —
// (20,30), (21,29), …, (25,25) — so any even number of rounds has the
// mean size.
func roundNodes(r int) int {
	cfg := workload.Default(0)
	k := (r / 2) % ((cfg.MaxNodes-cfg.MinNodes)/2 + 1)
	if r%2 == 0 {
		return cfg.MinNodes + k
	}
	return cfg.MaxNodes - k
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// usage is this process's CPU and heap counters at one instant.
type usage struct {
	cpu                float64 // user+sys seconds (getrusage)
	allocBytes, allocs float64
	gcCPU, totalCPU    float64 // runtime/metrics CPU classes
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(usageSamples)
	num := func(i int) float64 {
		v := usageSamples[i].Value
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		allocBytes: num(0), allocs: num(1), gcCPU: num(2), totalCPU: num(3),
	}
}

// resetPeakRSS restarts this process's resident-set high-water mark, so
// each round's peak is its own rather than the run's. Without
// /proc/self/clear_refs the mark is never reset and every round reads the
// process peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark since the last
// resetPeakRSS (VmHWM), or the process's getrusage maxrss where
// /proc/self/status is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// inprocRoundInto sets up and runs one in-process round into p.
func inprocRoundInto(p *phase, shape inprocShape, seed uint64, traced bool) error {
	var buf bytes.Buffer
	var spans *telemetry.Tracer
	if traced {
		spans = telemetry.NewTracer(&buf)
	}
	t0 := time.Now()
	r, err := setupInproc(shape, seed, spans)
	if err != nil {
		return err
	}
	p.setup = append(p.setup, time.Since(t0).Seconds())
	runtime.GC() // start every round from a collected heap
	resetPeakRSS()
	u0 := readUsage()
	out, err := r.run(spans, -1, nil)
	if err != nil {
		return err
	}
	u1 := readUsage()
	p.rssMB = append(p.rssMB, peakRSSMB())
	r.verify(out)

	p.addLedger(r.led)
	p.completed += out.completed
	p.costSum += out.costSum
	p.addRound(roundTotals{
		offered: float64(len(r.led.offered)), measured: out.measured.Seconds(),
		cpu: u1.cpu - u0.cpu, allocBytes: u1.allocBytes - u0.allocBytes, lat: out.decide,
	})
	p.mallocs += u1.allocs - u0.allocs
	if d := u1.totalCPU - u0.totalCPU; d > 0 {
		p.gcShare = append(p.gcShare, (u1.gcCPU-u0.gcCPU)/d)
	}
	p.process += out.process
	p.drains = append(p.drains, out.drain)
	p.prom.add(out.prom)
	p.checks.merge(out.checks)
	if p.records == nil {
		p.records = out.records
		p.wires = map[string]jobio.Job{}
		for _, w := range r.wires {
			p.wires[w.Name] = w
		}
	}
	if traced {
		s, err := parseSpans(buf.Bytes(), 0)
		if err != nil {
			return err
		}
		p.addSpans(s)
	}
	return nil
}

// runInprocWorkload runs in-process rounds for the budget. Traced runs
// replay the same round seeds with spans on in the second half, then
// capture a fresh round mid-run for the replay probes.
func runInprocWorkload(shape inprocShape, seed uint64, budget time.Duration, traced bool, dir string) (*report, result, error) {
	untracedBudget := budget
	if traced {
		untracedBudget = budget / 2
	}
	// One unmeasured round first, so the measured ones start from a
	// grown heap and warm caches.
	if err := inprocRoundInto(newPhase(), shape, roundSeed(seed, 0), false); err != nil {
		return nil, result{}, err
	}
	start := time.Now()
	u := newPhase()
	for r := 0; r == 0 || time.Since(start) < untracedBudget; r++ {
		if err := inprocRoundInto(u, shape, roundSeed(seed, r), false); err != nil {
			return nil, result{}, err
		}
	}
	rep := newReport()
	deriveEndToEnd(rep, u, true)
	if !traced {
		return rep, verdict(rep, u), nil
	}

	t := newPhase()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		if err := inprocRoundInto(t, shape, roundSeed(seed, r), true); err != nil {
			return nil, result{}, err
		}
	}
	var pr probeResult
	r, err := setupInproc(shape, roundSeed(seed, 0), nil)
	if err != nil {
		return nil, result{}, err
	}
	var probeErr error
	if _, err := r.run(nil, shape.jobs/shape.burst/2, func(r *inprocRound, next int) {
		in := r.capture(next)
		probeSnapshot(in, &pr)
		probeErr = probeBuild(in, &pr)
	}); err != nil {
		return nil, result{}, err
	}
	if probeErr != nil {
		return nil, result{}, probeErr
	}
	if err := probeAppend(filepath.Join(dir, "append-probe"), lifecycleRecords(u.records, u.wires), &pr); err != nil {
		return nil, result{}, err
	}
	derivePerLayer(rep, u, t, &pr, true)
	return rep, verdict(rep, u, t), nil
}

// runDurableWorkload runs durable-http rounds, each with a fresh gridd
// and journal, for the budget.
func runDurableWorkload(bin string, seed uint64, budget time.Duration, traced bool, dir string) (*report, result, error) {
	start := time.Now()
	untracedBudget := budget
	if traced {
		untracedBudget = budget / 2
	}
	round := func(p *phase, r int, traced bool) error {
		out, err := runDurableRound(bin, filepath.Join(dir, fmt.Sprintf("round-%d-%t", r, traced)), roundSeed(seed, r), traced)
		if err != nil {
			return err
		}
		p.addLedger(out.led)
		p.completed += out.completed
		p.addRound(roundTotals{
			offered: float64(len(out.led.offered)), measured: out.measured.Seconds(),
			cpu: out.cpu.Seconds(), allocBytes: float64(out.allocBytes), lat: out.lat,
		})
		p.mallocs += float64(out.mallocs)
		p.gcShare = append(p.gcShare, out.gcFrac)
		p.rssMB = append(p.rssMB, float64(out.maxRSSKB)/1024)
		p.setup = append(p.setup, out.setup.Seconds())
		p.late = append(p.late, out.late...)
		p.prom.add(out.prom)
		p.checks.merge(out.checks)
		if p.records == nil {
			p.records, p.wires = out.records, out.wires
		}
		if traced {
			p.addSpans(out.spans)
		}
		return nil
	}
	u := newPhase()
	for r := 0; r == 0 || time.Since(start) < untracedBudget; r++ {
		if err := round(u, r, false); err != nil {
			return nil, result{}, err
		}
	}
	rep := newReport()
	deriveEndToEnd(rep, u, false)
	if !traced {
		return rep, verdict(rep, u), nil
	}
	t := newPhase()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		if err := round(t, r, true); err != nil {
			return nil, result{}, err
		}
	}
	// gridd's calendars live in the child: the build and snapshot probes
	// run on the same seed's environment with empty calendars.
	gen := workload.New(workload.Default(roundSeed(seed, 0)))
	in := probeInputs{env: gen.Environment(2), release: 1}
	for _, a := range gen.FlowWith(workload.ArrivalSpec{Kind: workload.ProcPoisson}, 0, probeJobs, 0) {
		in.jobs = append(in.jobs, wireOf(a))
	}
	var pr probeResult
	probeSnapshot(in, &pr)
	in.cals = criticalworks.Snapshot(in.env)
	if err := probeBuild(in, &pr); err != nil {
		return nil, result{}, err
	}
	if err := probeAppend(filepath.Join(dir, "append-probe"), lifecycleRecords(u.records, u.wires), &pr); err != nil {
		return nil, result{}, err
	}
	derivePerLayer(rep, u, t, &pr, false)
	return rep, verdict(rep, u, t), nil
}

// verdict turns the phases' correctness gate into the result header.
func verdict(rep *report, phases ...*phase) result {
	res := result{Correct: true}
	for _, p := range phases {
		res.Attempted += p.offered
		res.Failed += p.errors
		if p.checks.n > 0 || p.errors > 0 {
			res.Correct = false
		}
		for _, m := range p.checks.msgs {
			rep.notef("CHECK FAILED: %s", m)
		}
		if p.checks.n > len(p.checks.msgs) {
			rep.notef("CHECK FAILED: ... %d more", p.checks.n-len(p.checks.msgs))
		}
	}
	return res
}

// put records a metric and its report line.
func (r *report) put(name string, v float64, unit, note string) {
	r.values[name] = v
	if note != "" {
		note = "  (" + note + ")"
	}
	r.notef("%-40s %14.6g %s%s", name, v, unit, note)
}

// deriveEndToEnd computes the end-to-end metrics of the untraced phase.
func deriveEndToEnd(rep *report, u *phase, inproc bool) {
	n := float64(u.offered)
	rep.notef("rounds %d, offered %d, accepted %d, refused %d, errors %d, completed %d, measured %.3fs",
		len(u.perRound), u.offered, u.accepted, u.refused, u.errors, u.completed, u.measured)
	rep.put("setup_s", median(u.setup), "s", fmt.Sprintf("median of %d set-ups", len(u.setup)))
	p50 := func(rt roundTotals) float64 { return pct(rt.lat, 0.5) * 1000 }
	p99 := func(rt roundTotals) float64 { return pct(rt.lat, 0.99) * 1000 }
	pairs := fmt.Sprintf("median over %d round pairs", max(len(u.perRound)/2, 1))
	rounds := fmt.Sprintf("over all %d rounds", len(u.perRound))
	rep.put("jobs_per_s", n/u.measured, "1/s", "offered jobs with a final outcome per measured second, "+rounds)
	rep.put("cpu_ms_per_job", u.cpu*1000/n, "ms", rounds)
	rep.put("completed_share", ratio(float64(u.completed), n), "share", fmt.Sprintf("%d of %d", u.completed, u.offered))
	rep.put("peak_rss_mb", median(u.rssMB), "MB", fmt.Sprintf("median of %d rounds' peaks", len(u.rssMB)))
	rep.put("alloc_kb_per_job", u.allocBytes/1024/n, "KB", rounds)
	latency := func(name, what string) {
		rep.put(name+"_p50_ms", u.pairMedian(p50), "ms", fmt.Sprintf("%s, %s; pooled p50 of %d samples %.4g ms", what, pairs, len(u.lat), pct(u.lat, 0.5)*1000))
		rep.put(name+"_p99_ms", u.pairMedian(p99), "ms", fmt.Sprintf("%s; pooled p99 of %d samples %.4g ms", pairs, len(u.lat), pct(u.lat, 0.99)*1000))
	}
	if inproc {
		latency("decide", "wall time of one Process call")
		rep.put("cost_per_completed", ratio(u.costSum, float64(u.completed)), "cf", fmt.Sprintf("mean CF cost of %d completed", u.completed))
	} else {
		latency("submit", "due time to response, waits for a free connection included")
		rep.put("gen.late_p99_ms", pct(u.late, 0.99)*1000, "ms", fmt.Sprintf("generator send delay past schedule, %d sends at %.1f jobs/s", len(u.late), durableRate()))
	}
	rep.put("refused_share", ratio(float64(u.refused), n), "share", fmt.Sprintf("%d of %d", u.refused, u.offered))
	rep.put("error_share", ratio(float64(u.errors), n), "share", fmt.Sprintf("%d of %d", u.errors, u.offered))
}

// derivePerLayer computes the per-layer metrics: counters and histogram
// sums from the untraced phase, span self times and overhead from the
// traced one, and the replay probes.
func derivePerLayer(rep *report, u, t *phase, pr *probeResult, inproc bool) {
	n := float64(u.offered)
	c := u.prom
	perJob := func(v float64) float64 { return v / n }
	ms := func(sec float64) float64 { return sec * 1000 / n }
	if inproc {
		rep.put("service.process_ms_per_job", ms(u.process), "ms", "timed Process calls")
		rep.put("service.drain_ms", median(u.drains)*1000, "ms", fmt.Sprintf("median Drain of %d", len(u.drains)))
	} else {
		proc := t.self["service.process"].totalNs + t.self["service.process_batch"].totalNs
		rep.put("service.process_ms_per_job", float64(proc)/1e6/float64(t.offered), "ms", "gridd service.process spans")
		d := t.self["service.drain"]
		rep.put("service.drain_ms", ratio(float64(d.totalNs)/1e6, float64(d.count)), "ms", fmt.Sprintf("mean of %d gridd service.drain spans", d.count))
	}
	qw := c.quantile("grid_service_queue_wait_seconds", 0.99)
	if math.IsNaN(qw) {
		qw = 0
	}
	rep.put("service.queue_wait_p99_ms", qw*1000, "ms", "grid_service_queue_wait_seconds")
	rep.put("metasched.adopt_ms_per_job", ms(c.sum("grid_metasched_adopt_seconds_sum")), "ms", "")
	rep.put("metasched.reallocations_per_job", perJob(c.sum("grid_metasched_events_total", "kind", "reallocate")), "count", "")
	rep.put("metasched.retries_per_job", perJob(c.sum("grid_metasched_events_total", "kind", "retry")), "count", "")
	rep.put("strategy.generate_ms_per_job", ms(c.sum("grid_strategy_generate_seconds_sum")), "ms", "")
	r, base := usefulRatio(c.sum("grid_strategy_levels_built_total"), c.sum("grid_strategy_levels_failed_total"))
	rep.put("strategy.level_ok_ratio", r, "share", fmt.Sprintf("base %.0f levels", base))
	r, base = usefulRatio(c.sum("grid_repair_hits_total")+c.sum("grid_repair_splices_total"),
		c.sum("grid_repair_misses_total")+c.sum("grid_repair_full_rebuilds_total"))
	rep.put("strategy.repair_useful_ratio", r, "share", fmt.Sprintf("base %.0f repair attempts", base))
	rep.put("criticalworks.build_ms_per_job", ms(c.sum("grid_criticalworks_build_seconds_sum")), "ms", "")
	rep.put("criticalworks.builds_per_job", perJob(c.sum("grid_criticalworks_builds_total")), "count", "")
	r, base = usefulRatio(c.sum("grid_criticalworks_builds_total", "result", "ok"), c.sum("grid_criticalworks_builds_total", "result", "infeasible"))
	rep.put("criticalworks.build_ok_ratio", r, "share", fmt.Sprintf("base %.0f builds", base))
	rep.put("criticalworks.evaluations_per_job", perJob(c.sum("grid_criticalworks_evaluations_total")), "count", "")
	probeNote := "on a calendar snapshot captured mid-run"
	if !inproc {
		probeNote = "on the seed's environment with empty calendars"
	}
	rep.put("criticalworks.replay.build_us", pr.buildUs, "us", fmt.Sprintf("median of %d builds (%d ok) %s", pr.builds, pr.buildOK, probeNote))
	rep.put("criticalworks.replay.allocs_per_build", pr.buildAllocs, "count", "")
	rep.put("criticalworks.replay.kb_per_build", pr.buildKB, "KB", "")
	rep.put("resource.snapshot_us", pr.snapshotUs, "us", fmt.Sprintf("median of %d Snapshot calls %s", probeSnapshots, probeNote))
	rep.put("resource.snapshot_kb", pr.snapshotKB, "KB", "")
	r, base = usefulRatio(c.sum("grid_placer_conflicts_total"), c.sum("grid_placer_commits_total"))
	rep.put("resource.placer_conflict_ratio", r, "share", fmt.Sprintf("conflicts / (commits+conflicts), base %.0f", base))
	rep.put("resource.placer_fallbacks_per_job", perJob(c.sum("grid_placer_sequential_fallbacks_total")), "count", "")
	acc := float64(u.accepted)
	rep.put("journal.appends_per_job", ratio(c.sum("grid_journal_appends_total"), acc), "count", fmt.Sprintf("per accepted job, %d accepted", u.accepted))
	rep.put("journal.fsyncs_per_job", ratio(c.sum("grid_journal_fsyncs_total"), acc), "count", "per accepted job")
	rep.put("journal.replay.append_p50_us", pr.appendP50Us, "us", fmt.Sprintf("%d records, %d appenders, fsync always", pr.appends, probeAppenders))
	rep.put("journal.replay.append_p99_us", pr.appendP99Us, "us", "")
	rep.put("runtime.gc_cpu_share", median(u.gcShare), "share", "")
	rep.put("runtime.mallocs_per_job", u.mallocs/n, "count", "")

	layers := map[string]float64{}
	for name, ls := range t.self {
		layers[layerOf(name)] += float64(ls.selfNs)
	}
	for _, layer := range []string{"bench", "service", "metasched", "strategy", "criticalworks"} {
		rep.put("self."+layer+"_ms_per_job", layers[layer]/1e6/float64(t.offered), "ms", "span self time, traced half")
	}
	for _, name := range sortedKeys(t.self) {
		ls := t.self[name]
		rep.notef("  span %-28s n=%-8d total %10.3fms self %10.3fms", name, ls.count, float64(ls.totalNs)/1e6, float64(ls.selfNs)/1e6)
	}
	// The traced half replays the untraced half's round seeds from round 0:
	// compare the rounds both halves ran.
	k := min(len(u.perRound), len(t.perRound))
	sum := func(rs []roundTotals) (rt roundTotals) {
		for _, r := range rs {
			rt.offered += r.offered
			rt.measured += r.measured
			rt.cpu += r.cpu
		}
		return rt
	}
	ur, tr := sum(u.perRound[:k]), sum(t.perRound[:k])
	uj, tj := ur.offered/ur.measured, tr.offered/tr.measured
	rep.put("trace.overhead_share", 1-tj/uj, "share", fmt.Sprintf("jobs/s over the %d rounds both halves ran: untraced %.2f, traced %.2f", k, uj, tj))
	uc, tc := ur.cpu/ur.offered, tr.cpu/tr.offered
	rep.put("trace.cpu_overhead_share", tc/uc-1, "share", fmt.Sprintf("cpu ms/job untraced %.3f, traced %.3f", uc*1000, tc*1000))
}
