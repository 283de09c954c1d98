package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/criticalworks"
	"repro/internal/faults"
	"repro/internal/jobio"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// inprocShape is one in-process workload: a manual-mode service fed in
// bursts of `burst` arrivals, with `proc` jobs scheduled per step.
type inprocShape struct {
	jobs, burst, proc int
	placers           int
	arrival           workload.ProcessKind
	families          []string
	// perJob makes each step one Process(1) call per job; otherwise the
	// step's whole batch goes to one Process(proc) call, which is what
	// forms placer batches (Process(1) never does).
	perJob bool
	// outages injects node outages over the arrival span.
	outages bool
}

// The in-process workloads. Round sizes are multiples of the burst, so
// every round ends on a full step.
var (
	burstyOverload = inprocShape{
		jobs: 480, burst: 16, proc: 12,
		arrival: workload.ProcBursty, families: []string{"S1"}, perJob: true,
	}
	outagePlacers = inprocShape{
		jobs: 480, burst: 4, proc: 4, placers: 2,
		arrival:  workload.ProcPoisson,
		families: []string{"S1", "S2", "S3", "MS1"},
		outages:  true,
	}
)

// Outage process for outage-placers: mean node uptime and repair time in
// model ticks.
const (
	outageMTBF = 400
	outageMTTR = 20
)

// priorities is the number of admission priorities submissions cycle
// through, so overload shedding has victims to choose.
const priorities = 3

// inprocRound is one round's inputs: the environment, the wire-form flow
// and the service built over them.
type inprocRound struct {
	shape inprocShape
	env   *resource.Environment
	wires []jobio.Job
	srv   *service.Server
	reg   *telemetry.Registry
	led   *ledger
}

// setupInproc generates the round's environment and flow from seed and
// constructs the service; this is what setup_s times.
func setupInproc(shape inprocShape, seed uint64, spans *telemetry.Tracer) (*inprocRound, error) {
	gen := workload.New(workload.Default(seed))
	env := gen.Environment(2)
	flow := gen.FlowWith(workload.ArrivalSpec{Kind: shape.arrival}, 0, shape.jobs, 0)
	wires := make([]jobio.Job, len(flow))
	for i, a := range flow {
		wires[i] = wireOf(a)
	}
	r := &inprocRound{shape: shape, env: env, wires: wires, reg: telemetry.NewRegistry(), led: newLedger()}
	cfg := service.Config{
		Env:       env,
		QueueCap:  64,
		Telemetry: r.reg,
		Sched:     metasched.Config{Seed: seed, Placers: shape.placers, Spans: spans},
		OnTerminal: func(rec service.Record) {
			r.led.terminal(rec.ID, rec.State)
		},
	}
	if shape.outages {
		cfg.Sched.Faults = faults.Config{
			MTBF: outageMTBF, MTTR: outageMTTR, MaxRetries: 2, JitterFrac: 0.2,
			Until: arrivalSpan(shape), Seed: seed + 1,
		}
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	return r, nil
}

// wireOf is an arrival's wire form. The wire deadline is the relative QoS
// budget; the service re-anchors it at its own arrival tick.
func wireOf(a workload.Arrival) jobio.Job {
	w := jobio.FromJob(a.Job)
	w.Deadline = int64(a.Job.Deadline - a.At)
	return w
}

// arrivalSpan is the model time the round's arrivals cover: the service
// advances two ticks per arrival batch (arrival, then one past it), and
// a step of proc jobs forms ceil(proc/width) batches. The outage schedule
// ends there; the default horizon would make Drain replay tens of
// thousands of node-down events after the last arrival.
func arrivalSpan(shape inprocShape) simtime.Time {
	width := max(shape.placers, 1)
	steps := shape.jobs / shape.burst
	return simtime.Time(2 * steps * ((shape.proc + width - 1) / width))
}

// inprocOut is what one measured round yields.
type inprocOut struct {
	measured  time.Duration
	decide    []float64 // seconds per Process call
	process   float64   // seconds in Process, summed
	drain     float64   // seconds in Drain
	completed int
	costSum   float64
	fates     map[string]int
	prom      scrape
	checks    problems
	records   []service.Record // the round's ledger, for the journal probe
}

// submitOutcome classifies a Submit error the way the HTTP layer would.
func submitOutcome(err error) string {
	if err == nil {
		return outAccepted
	}
	var se *service.SubmitError
	if errors.As(err, &se) {
		switch se.Code {
		case service.CodeInfeasible, service.CodeOverloaded, service.CodeDraining:
			return outRefused
		}
	}
	return outError
}

// run drives the round: bursts of submissions, a scheduling step after
// each, and a Drain under load at the end. Only this is measured; verify
// checks the outcome afterwards. When probeAt > 0, the round instead
// stops after that many steps and hands its live state to probe.
func (r *inprocRound) run(spans *telemetry.Tracer, probeAt int, probe func(*inprocRound, int)) (*inprocOut, error) {
	out := &inprocOut{}
	sh := r.shape
	step := func() {
		calls, n := sh.proc, 1
		if !sh.perJob {
			calls, n = 1, sh.proc
		}
		for k := 0; k < calls; k++ {
			sp := spans.Start("bench.process", 0)
			t0 := time.Now()
			done := r.srv.Process(n)
			d := time.Since(t0).Seconds()
			sp.End()
			if done > 0 {
				out.decide = append(out.decide, d)
				out.process += d
			}
		}
	}
	start := time.Now()
	steps := 0
	for i, w := range r.wires {
		sp := spans.Start("bench.submit", 0).SetStr("job", w.Name)
		_, err := r.srv.Submit(w, sh.families[i%len(sh.families)], i%priorities)
		sp.End()
		r.led.offer(w.Name, submitOutcome(err))
		if (i+1)%sh.burst != 0 {
			continue
		}
		step()
		steps++
		if steps == probeAt {
			probe(r, i+1)
			return nil, nil
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sp := spans.Start("bench.drain", 0)
	t0 := time.Now()
	err := r.srv.Drain(ctx)
	out.drain = time.Since(t0).Seconds()
	sp.End()
	out.measured = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	return out, nil
}

// verify runs the correctness gate on the drained round and collects its
// fates, cost and counters.
func (r *inprocRound) verify(out *inprocOut) {
	out.checks.merge(checkAccounting(r.led))
	m := r.srv.Metrics()
	if int(m.Submitted) != len(r.led.offered) || int(m.Accepted) != r.led.count(outAccepted) {
		out.checks.addf("service counted %d submitted / %d accepted; the benchmark offered %d and saw %d accepted",
			m.Submitted, m.Accepted, len(r.led.offered), r.led.count(outAccepted))
	}
	books := map[string][]simtime.Interval{}
	for _, n := range r.env.Nodes() {
		for _, res := range n.Calendar().Reservations() {
			books[n.Name] = append(books[n.Name], res.Interval)
		}
	}
	out.checks.merge(checkOverlaps(books))
	var done []finished
	for _, jr := range r.srv.Results() {
		if jr.State != metasched.StateCompleted {
			continue
		}
		done = append(done, finished{id: jr.Job.Name, finish: jr.Finish, deadline: jr.Job.Deadline})
		out.costSum += jr.Cost
	}
	out.checks.merge(checkDeadlines(done))

	out.fates = map[string]int{}
	for _, id := range r.led.offered {
		fate := r.led.outcome[id]
		if ts := r.led.terminals[id]; len(ts) > 0 {
			fate = ts[len(ts)-1]
		}
		out.fates[fate]++
	}
	out.completed = out.fates[service.StateCompleted]
	out.records = r.srv.Jobs()
	out.prom = registryScrape(r.reg, &out.checks)
}

// registryScrape reads a registry through its Prometheus rendering, the
// same path gridd's /metrics takes.
func registryScrape(reg *telemetry.Registry, p *problems) scrape {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		p.addf("render registry: %v", err)
		return scrape{}
	}
	s, err := parseProm(buf.Bytes())
	if err != nil {
		p.addf("parse registry: %v", err)
		return scrape{}
	}
	return s
}

// probeInputs are the build inputs captured from a round mid-run: a
// snapshot of every node's calendar, the flow's next jobs, and the model
// time their builds are released at.
type probeInputs struct {
	env     *resource.Environment
	cals    criticalworks.Calendars
	jobs    []jobio.Job
	release simtime.Time
}

// capture snapshots r's live state after `next` submissions.
func (r *inprocRound) capture(next int) probeInputs {
	in := probeInputs{env: r.env, cals: criticalworks.Snapshot(r.env), release: r.srv.Metrics().EngineNow + 1}
	for i := next; i < len(r.wires) && len(in.jobs) < probeJobs; i++ {
		in.jobs = append(in.jobs, r.wires[i])
	}
	return in
}
