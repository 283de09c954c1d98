// Command gridbench is the repository benchmark. It runs one workload of
// the scheduling service for a fixed wall-clock budget, checks that the
// service's outputs are correct, and prints every metric by name with its
// unit, then one JSON result line:
//
//	bash gridbench/run.sh --workload bursty-overload --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   - bursty-overload: in-process manual-mode service in sustained
//     overload; the strategy/critical-works build path does the work.
//   - outage-placers: in-process service with two optimistic placers and
//     node outages; calendars see concurrent writers.
//   - durable-http: a journaled gridd child (-fsync always) driven
//     open-loop over loopback HTTP.
//
// The program is a black box: the benchmark calls the service's public
// API (or gridd over HTTP), times those calls from its own code, and
// reads the counters and histograms the program already registers.
// --trace 0 reports the end-to-end metrics. --trace 1 spends half the
// budget untraced and half with the program's span stream on, and
// reports the per-layer metrics: layer counters, span self times, the
// replay probes and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricSpec names one reported metric. The two lists are the contract
// with BENCHMARK.json; a test keeps them equal.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"completed_share", "share"},
	{"peak_rss_mb", "MB"},
	{"alloc_kb_per_job", "KB"},
}

var perLayer = []metricSpec{
	{"service.process_ms_per_job", "ms"},
	{"service.drain_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"metasched.adopt_ms_per_job", "ms"},
	{"metasched.reallocations_per_job", "count"},
	{"metasched.retries_per_job", "count"},
	{"strategy.generate_ms_per_job", "ms"},
	{"strategy.level_ok_ratio", "share"},
	{"strategy.repair_useful_ratio", "share"},
	{"criticalworks.build_ms_per_job", "ms"},
	{"criticalworks.builds_per_job", "count"},
	{"criticalworks.build_ok_ratio", "share"},
	{"criticalworks.evaluations_per_job", "count"},
	{"criticalworks.replay.build_us", "us"},
	{"criticalworks.replay.allocs_per_build", "count"},
	{"criticalworks.replay.kb_per_build", "KB"},
	{"resource.snapshot_us", "us"},
	{"resource.snapshot_kb", "KB"},
	{"resource.placer_conflict_ratio", "share"},
	{"resource.placer_fallbacks_per_job", "count"},
	{"journal.appends_per_job", "count"},
	{"journal.fsyncs_per_job", "count"},
	{"journal.replay.append_p50_us", "us"},
	{"journal.replay.append_p99_us", "us"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.mallocs_per_job", "count"},
	{"self.bench_ms_per_job", "ms"},
	{"self.service_ms_per_job", "ms"},
	{"self.metasched_ms_per_job", "ms"},
	{"self.strategy_ms_per_job", "ms"},
	{"self.criticalworks_ms_per_job", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.cpu_overhead_share", "share"},
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metric values and the human-readable lines printed
// before the result.
type report struct {
	values map[string]float64
	lines  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

// run runs one workload and returns the exit code: 0, 1 when the
// correctness gate failed, 2 when no measurement could be made.
func run() int {
	var (
		workloadName = flag.String("workload", "", "bursty-overload, durable-http or outage-placers")
		seed         = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 20, "wall-clock budget of the measured rounds")
		trace        = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		gridd        = flag.String("gridd", filepath.Join(".bench_build", "gridd"), "gridd binary for durable-http")
		workDir      = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for journals and spans")
	)
	flag.Parse()
	// The benchmark runs on one core: in-process, the service and its
	// garbage collector then need one CPU, so a neighbour on a shared
	// 2-vCPU host slows them through the cache rather than by taking turns
	// on the same cores. The two placer goroutines of outage-placers
	// interleave. gridd children keep the default.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1
	if *trace != 0 && !traced {
		return failf("--trace must be 0 or 1")
	}
	dir := filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *workloadName, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return failf("%v", err)
	}
	defer os.RemoveAll(dir)

	var (
		rep *report
		res result
		err error
	)
	switch *workloadName {
	case "bursty-overload":
		rep, res, err = runInprocWorkload(burstyOverload, *seed, budget, traced, dir)
	case "outage-placers":
		rep, res, err = runInprocWorkload(outagePlacers, *seed, budget, traced, dir)
	case "durable-http":
		if _, statErr := os.Stat(*gridd); statErr != nil {
			return failf("gridd binary: %v", statErr)
		}
		rep, res, err = runDurableWorkload(*gridd, *seed, budget, traced, dir)
	default:
		return failf("unknown --workload %q", *workloadName)
	}
	if err != nil {
		return failf("%v", err)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res.Metrics = map[string]metric{}
	if res.Correct {
		for _, m := range specs {
			v, ok := rep.values[m.name]
			if !ok {
				return failf("metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return failf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func failf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "gridbench: "+format+"\n", args...)
	return 2
}
