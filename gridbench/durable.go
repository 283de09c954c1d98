package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// durable-http shape: a journaled gridd child with -fsync always, driven
// open-loop by Poisson arrivals over at most durableConns keep-alive
// connections. One model tick of the generated flow is durableTick of
// wall time, so the offered rate is 1/(MeanInterarrival·durableTick):
// 12 ticks × 4 ms = 20.8 jobs/s. gridd fsyncs three journal records per
// job under its lock, so its capacity is set by the host's fsync latency;
// the rate leaves it mostly idle even where an fsync takes 10 ms. Near
// capacity a backlog forms, and how many jobs then meet their deadlines
// depends on the host's disk rather than on the program.
const (
	durableJobs  = 120
	durableTick  = 4 * time.Millisecond
	durableConns = 2
	durableWait  = 60 * time.Second // for accepted jobs to turn terminal
)

// durableRate is the fixed offered rate in jobs per second.
func durableRate() float64 {
	return 1 / (workload.Default(0).MeanInterarrival * durableTick.Seconds())
}

// durableOut is what one durable-http round yields.
type durableOut struct {
	setup, measured time.Duration
	lat, late       []float64 // seconds: response time from due; send delay past due
	led             *ledger
	completed       int
	prom            scrape
	cpu             time.Duration
	maxRSSKB        int64
	allocBytes      uint64
	mallocs         uint64
	gcFrac          float64
	checks          problems
	records         []service.Record
	wires           map[string]jobio.Job
	spans           []span
}

// child is a running gridd.
type child struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{} // closed when Wait returns
	err  error
}

// startGridd launches gridd on a free loopback port and waits for
// /healthz.
func startGridd(bin, dir string, seed uint64, spansPath string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{
		"-listen", addr, "-domains", "2", "-seed", strconv.FormatUint(seed, 10),
		"-journal-dir", filepath.Join(dir, "journal"), "-fsync", "always",
		"-snapshot", filepath.Join(dir, "drained.json"), "-pprof",
	}
	if spansPath != "" {
		args = append(args, "-spans", spansPath)
	}
	logf, err := os.Create(filepath.Join(dir, "gridd.log"))
	if err != nil {
		return nil, err
	}
	c := &child{cmd: exec.Command(bin, args...), base: "http://" + addr, log: logf, done: make(chan struct{})}
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start gridd: %w", err)
	}
	go func() { c.err = c.cmd.Wait(); close(c.done) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.done:
			logf.Close()
			return nil, fmt.Errorf("gridd exited before /healthz answered: %v (log %s)", c.err, logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("gridd did not answer /healthz within 30s")
		}
	}
}

// stop sends SIGTERM (gridd drains and exits) and waits; kill is the
// fallback after 30s.
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		c.kill()
		return fmt.Errorf("gridd did not exit within 30s of SIGTERM")
	}
	c.log.Close()
	if c.err != nil {
		return fmt.Errorf("gridd: %w", c.err)
	}
	return nil
}

// kill stops the child unconditionally and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
	c.log.Close()
}

// memStats reads the child's runtime.MemStats from the text heap profile
// that gridd -pprof serves.
func memStats(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, fmt.Errorf("no runtime.MemStats in %s/debug/pprof/allocs", base)
	}
	return out, nil
}

func getBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// runDurableRound runs one durable-http round in dir: set up gridd, offer
// the flow open-loop, wait until every accepted job is terminal, then
// stop gridd and check its journal.
func runDurableRound(bin, dir string, seed uint64, traced bool) (*durableOut, error) {
	out := &durableOut{led: newLedger(), wires: map[string]jobio.Job{}}
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	gen := workload.New(workload.Default(seed))
	flow := gen.FlowWith(workload.ArrivalSpec{Kind: workload.ProcPoisson}, 0, durableJobs, 0)
	// Rescale the Poisson arrival instants so the round's last arrival
	// falls at durableJobs/durableRate: every round offers exactly the
	// fixed rate, with Poisson-shaped gaps.
	window := float64(durableJobs) / durableRate() * float64(time.Second)
	last := float64(flow[len(flow)-1].At)
	bodies := make([][]byte, len(flow))
	names := make([]string, len(flow))
	dues := make([]time.Duration, len(flow))
	for i, a := range flow {
		w := wireOf(a)
		out.wires[w.Name] = w
		names[i] = w.Name
		dues[i] = time.Duration(float64(a.At) / last * window)
		b, err := json.Marshal(service.SubmitRequest{Job: w, Strategy: "S1", Priority: i % priorities})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	spansPath := ""
	if traced {
		spansPath = filepath.Join(dir, "spans.jsonl")
	}
	c, err := startGridd(bin, dir, seed, spansPath)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(t0)
	stopped := false
	defer func() {
		if !stopped {
			c.kill()
		}
	}()

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: durableConns, MaxIdleConnsPerHost: durableConns,
			DisableCompression: true,
		},
	}
	defer client.CloseIdleConnections()
	before, err := memStats(client, c.base)
	if err != nil {
		return nil, err
	}

	var benchSpans bytes.Buffer
	var tracer *telemetry.Tracer
	if traced {
		tracer = telemetry.NewTracer(telemetry.NewSyncWriter(&benchSpans))
	}
	outcomes := make([]string, len(flow))
	lat := make([]float64, len(flow))
	late := make([]float64, len(flow))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < durableConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(flow) {
					return
				}
				due := start.Add(dues[i])
				time.Sleep(time.Until(due))
				sp := tracer.Start("bench.post", 0).SetStr("job", names[i])
				late[i] = time.Since(due).Seconds()
				outcomes[i] = post(client, c.base+"/v1/jobs", bodies[i])
				lat[i] = time.Since(due).Seconds()
				sp.End()
			}
		}()
	}
	wg.Wait()
	accepted := 0
	for i, o := range outcomes {
		out.led.offer(names[i], o)
		if o == outAccepted {
			accepted++
		}
	}
	waitErr := waitTerminal(client, c.base, accepted)
	out.measured = time.Since(start)
	out.lat, out.late = lat, late

	after, err := memStats(client, c.base)
	if err != nil {
		return nil, err
	}
	out.allocBytes = uint64(after["TotalAlloc"] - before["TotalAlloc"])
	out.mallocs = uint64(after["Mallocs"] - before["Mallocs"])
	out.gcFrac = after["GCCPUFraction"]
	text, err := getBody(client, c.base+"/metrics")
	if err != nil {
		return nil, err
	}
	if out.prom, err = parseProm(text); err != nil {
		return nil, err
	}
	jobsBody, err := getBody(client, c.base+"/v1/jobs")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(jobsBody, &out.records); err != nil {
		return nil, fmt.Errorf("decode /v1/jobs: %w", err)
	}
	client.CloseIdleConnections()
	stopped = true
	if err := c.stop(); err != nil {
		return nil, err
	}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		out.maxRSSKB = ru.Maxrss
	}

	if waitErr != nil {
		out.checks.addf("%v", waitErr)
	}
	out.verify(filepath.Join(dir, "journal"))
	if traced {
		data, err := os.ReadFile(spansPath)
		if err != nil {
			return nil, err
		}
		if out.spans, err = parseSpans(data, 0); err != nil {
			return nil, err
		}
		bench, err := parseSpans(benchSpans.Bytes(), 1<<40)
		if err != nil {
			return nil, err
		}
		out.spans = append(out.spans, bench...)
	}
	return out, nil
}

// post submits one job and classifies the response.
func post(client *http.Client, url string, body []byte) string {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outError
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return classifyStatus(resp.StatusCode)
}

// waitTerminal polls the counters until every accepted job is terminal.
func waitTerminal(client *http.Client, base string, accepted int) error {
	ctx, cancel := context.WithTimeout(context.Background(), durableWait)
	defer cancel()
	for {
		b, err := getBody(client, base+"/v1/metrics")
		if err != nil {
			return err
		}
		var m service.Metrics
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("decode /v1/metrics: %w", err)
		}
		// Infeasible refusals count as rejected but were never accepted.
		if terminal := int(m.Completed + m.Rejected + m.Drained - m.Infeasible); terminal >= accepted {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("accepted jobs still not terminal after %s", durableWait)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// verify runs the correctness gate on a stopped round: the ledger against
// /v1/jobs, deadlines, and the reopened journal against the final states.
func (out *durableOut) verify(journalDir string) {
	final := map[string]string{}
	var done []finished
	for _, r := range out.records {
		if !service.Terminal(r.State) {
			continue
		}
		out.led.terminal(r.ID, r.State)
		if out.led.outcome[r.ID] == outAccepted {
			final[r.ID] = r.State
		}
		if r.State == service.StateCompleted {
			out.completed++
			done = append(done, finished{id: r.ID, finish: r.Finish,
				deadline: r.Arrival + simtime.Time(out.wires[r.ID].Deadline)})
		}
	}
	out.checks.merge(checkAccounting(out.led))
	out.checks.merge(checkDeadlines(done))

	j, rec, err := journal.Open(journal.Options{Dir: journalDir, IsTerminal: service.Terminal})
	if err != nil {
		out.checks.addf("reopen journal: %v", err)
		return
	}
	recovered := map[string]string{}
	for _, js := range rec.Jobs {
		recovered[js.Job] = js.State
	}
	if err := j.Close(); err != nil {
		out.checks.addf("close reopened journal: %v", err)
	}
	out.checks.merge(checkRecovered(final, recovered))
}
