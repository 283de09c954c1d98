package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/simtime"
)

// Probe sizes: builds per captured job, captured jobs, snapshot repeats,
// and the cap on re-appended journal records (each is an fsync).
const (
	probeJobs       = 8
	probeBuildReps  = 4
	probeSnapshots  = 20
	probeRecords    = 400
	probeAppenders  = 2
	bytesPerKB      = 1024.0
	secondsPerMicro = 1e-6
)

// probeResult holds the replay probes' figures, in the units they are
// reported in.
type probeResult struct {
	buildUs, buildAllocs, buildKB float64
	buildOK, builds               int
	snapshotUs, snapshotKB        float64
	appendP50Us, appendP99Us      float64
	appends                       int
}

// allocDelta runs fn and returns the heap objects and bytes it allocated.
func allocDelta(fn func()) (objs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// probeSnapshot times criticalworks.Snapshot on the environment's live,
// mid-run calendars.
func probeSnapshot(in probeInputs, pr *probeResult) {
	var times []float64
	_, bytes := allocDelta(func() {
		for i := 0; i < probeSnapshots; i++ {
			t0 := time.Now()
			_ = criticalworks.Snapshot(in.env)
			times = append(times, time.Since(t0).Seconds())
		}
	})
	pr.snapshotUs = median(times) / secondsPerMicro
	pr.snapshotKB = float64(bytes) / probeSnapshots / bytesPerKB
}

// probeBuild times criticalworks.Build for each captured job against a
// fresh copy of the captured calendar snapshot, on the first domain's
// nodes. Copies are made before timing starts: Build reserves into the
// view it is given.
func probeBuild(in probeInputs, pr *probeResult) error {
	opt := criticalworks.Options{Release: in.release}
	for _, n := range in.env.ByDomain(in.env.Domains()[0]) {
		opt.Candidates = append(opt.Candidates, n.ID)
	}
	type call struct {
		job  *dag.Job
		cals criticalworks.Calendars
	}
	var calls []call
	for _, w := range in.jobs {
		job, err := w.ToJob()
		if err != nil {
			return fmt.Errorf("build probe: %w", err)
		}
		job = job.WithDeadline(in.release + simtime.Time(w.Deadline))
		for r := 0; r < probeBuildReps; r++ {
			cals := make(criticalworks.Calendars, len(in.cals))
			for id, c := range in.cals {
				cals[id] = c.Clone()
			}
			calls = append(calls, call{job, cals})
		}
	}
	if len(calls) == 0 {
		return fmt.Errorf("build probe: no jobs captured")
	}
	times := make([]float64, 0, len(calls))
	objs, bytes := allocDelta(func() {
		for _, c := range calls {
			t0 := time.Now()
			_, err := criticalworks.Build(in.env, c.cals, c.job, opt)
			times = append(times, time.Since(t0).Seconds())
			if err == nil {
				pr.buildOK++
			}
		}
	})
	pr.builds = len(calls)
	pr.buildUs = median(times) / secondsPerMicro
	pr.buildAllocs = float64(objs) / float64(pr.builds)
	pr.buildKB = float64(bytes) / float64(pr.builds) / bytesPerKB
	return nil
}

// lifecycleRecords rebuilds the journal record stream a journaled service
// writes for these jobs: the accept (with its wire form), the hand-off to
// the scheduler, and the terminal transition. Jobs refused at admission
// as infeasible leave one rejected record.
func lifecycleRecords(recs []service.Record, wires map[string]jobio.Job) []journal.Record {
	var out []journal.Record
	for _, r := range recs {
		w, ok := wires[r.ID]
		if !ok {
			continue
		}
		if r.State == service.StateRejected && r.Arrival == 0 && !isShed(r.Reason) {
			out = append(out, journal.Record{Job: r.ID, State: r.State, Reason: r.Reason, Strategy: r.Strategy, Priority: r.Priority})
			continue
		}
		out = append(out, journal.Record{Job: r.ID, State: service.StateQueued, Strategy: r.Strategy, Priority: r.Priority, Wire: &w})
		if r.Arrival > 0 {
			out = append(out, journal.Record{Job: r.ID, State: service.StateScheduled})
		}
		if service.Terminal(r.State) {
			out = append(out, journal.Record{Job: r.ID, State: r.State, Reason: r.Reason})
		}
	}
	return out
}

func isShed(reason string) bool { return strings.HasPrefix(reason, "shed:") }

// probeAppend re-appends up to probeRecords records into a fresh journal
// under FsyncAlways from probeAppenders goroutines, timing every Append.
func probeAppend(dir string, recs []journal.Record, pr *probeResult) error {
	if len(recs) > probeRecords {
		recs = recs[:probeRecords]
	}
	if len(recs) == 0 {
		return fmt.Errorf("append probe: empty record stream")
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways, IsTerminal: service.Terminal})
	if err != nil {
		return fmt.Errorf("append probe: %w", err)
	}
	times := make([]float64, len(recs))
	errs := make([]error, probeAppenders)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < probeAppenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				t0 := time.Now()
				if _, err := j.Append(recs[i]); err != nil && errs[g] == nil {
					errs[g] = err
				}
				times[i] = time.Since(t0).Seconds()
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		return fmt.Errorf("append probe: close: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("append probe: %w", err)
		}
	}
	pr.appendP50Us = pct(times, 0.5) / secondsPerMicro
	pr.appendP99Us = pct(times, 0.99) / secondsPerMicro
	pr.appends = len(recs)
	return nil
}
