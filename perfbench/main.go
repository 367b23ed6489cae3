// Command perfbench is the repository benchmark. It runs one named
// workload, checks the simulator's outputs, and prints every metric by
// name with its unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//	python3 perfbench/run.py compare [-force] BASE.jsonl NEW.jsonl
//
// Workloads, metrics and bounds are declared in BENCHMARK.json at the
// repository root. With --trace 0 the run reports the end-to-end
// metrics; with --trace 1 it records a span around every call it makes
// into a layer, reports the per-layer metrics, and writes the spans to
// a JSON file under the build directory. Both modes print a record
// line with the host stamp and the end-to-end numbers before the
// result, so the traced run's overhead shows against the untraced one;
// --out appends that record to a JSON-lines file for the compare step.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"energysched/internal/cliflags"
	"energysched/internal/machine"
)

// config is what one run is asked to do.
type config struct {
	seed    uint64
	seconds int
	// quick shortens paper-repro's experiments as espower -quick does
	// (tests only).
	quick bool
}

// workloadFunc runs one workload: set-up, timed window, checks.
type workloadFunc func(config, *tracer) (*report, error)

// workloads maps each BENCHMARK.json workload to the function that runs it.
var workloads = map[string]workloadFunc{
	"paper-repro":          runPaper,
	"server1024-saturated": func(c config, tr *tracer) (*report, error) { return runServer(saturated, c, tr) },
	"server1024-wide-idle": func(c config, tr *tracer) (*report, error) { return runServer(wideIdle, c, tr) },
	"farm-sweeps":          runFarm,
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"norm_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload does not call reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{{"wall_s", "s"}, {"cpu_s", "s"}, {"host_speed", "ratio"}, {"scenario.build_ms", "ms"}}
	for _, e := range paperExperiments {
		defs = append(defs, metricDef{"experiments." + e.name + "_s", "s"})
	}
	return append(defs,
		metricDef{"experiments.warm_image_ms", "ms"},
		metricDef{"experiments.measure_seed_ms", "ms"},
		metricDef{"machine.run_s", "s"},
		metricDef{"machine.run_calls", "count"},
		metricDef{"machine.checkpoint_ms", "ms"},
		metricDef{"machine.restore_ms", "ms"},
		metricDef{"machine.branch_ms", "ms"},
		metricDef{"machine.image_kb", "KB"},
		metricDef{"sched.balance_fires", "count"},
		metricDef{"sched.idle_pull_fires", "count"},
		metricDef{"sched.hot_fires", "count"},
		metricDef{"sched.gov_fires", "count"},
		metricDef{"sched.hot_arms", "count"},
		metricDef{"sched.hot_rearms", "count"},
		metricDef{"sched.hot_stale", "count"},
		metricDef{"sched.migrations", "count"},
		metricDef{"sim_cpu_ms_per_s", "ms/s"},
		metricDef{"farm.cache_hits", "count"},
		metricDef{"farm.cache_misses", "count"},
		metricDef{"farm.hit_ratio", "ratio"},
		metricDef{"farm.header_ms_p50", "ms"},
		metricDef{"farm.row_gap_ms_p50", "ms"},
		metricDef{"farm.hit_first_row_ms_p50", "ms"},
		metricDef{"farm.hit_first_row_ms_p90", "ms"},
		metricDef{"farm.miss_first_row_ms_p50", "ms"},
		metricDef{"farm.rows_per_s", "1/s"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"failed_frac", "ratio"},
		metricDef{"trace.norm_cpu_s", "s"},
		metricDef{"trace.spans", "count"},
	)
}()

// report is what a workload measured and checked.
type report struct {
	engine    string
	attempted int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
}

func newReport(engine string) *report {
	return &report{engine: engine, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// window brackets a workload's timed work for the Go runtime and
// memory metrics.
type window struct {
	ms0 runtime.MemStats
}

func startWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.ms0)
	return w
}

// passes is how many times paper-repro and server1024-* run their
// timed work, each time from the same state, and a unit's time is the
// least of its normalized times. A busy host only slows a unit down,
// and in runs of the same code the least of two passes spread half as
// much as the first pass alone.
const passes = 2

// stop records the window's runtime deltas, the times mt measured
// over it in npass passes (per pass), and peak RSS before any check
// can raise it.
func (w *window) stop(rep *report, mt *meter, npass int) error {
	if err := mt.close(); err != nil {
		return err
	}
	rep.e2e["norm_cpu_s"] = mt.least(npass).Seconds()
	rep.layer["wall_s"] = mt.wall.Seconds() / float64(npass)
	rep.layer["cpu_s"] = mt.cpu.Seconds() / float64(npass)
	rep.layer["host_speed"] = mt.speed
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rep.layer["go.alloc_mb"] = float64(ms1.TotalAlloc-w.ms0.TotalAlloc) / 1e6
	rep.layer["go.gc_cycles"] = float64(ms1.NumGC - w.ms0.NumGC)
	rss, err := peakRSSMB()
	rep.e2e["peak_rss_mb"] = rss
	return err
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// defaultEngine is the engine a user gets by naming none.
func defaultEngine() machine.Engine {
	return *cliflags.Engine(flag.NewFlagSet("default", flag.ContinueOnError))
}

// defaultGovernor is espower's default -governor.
func defaultGovernor() string {
	return *cliflags.Governor(flag.NewFlagSet("default", flag.ContinueOnError))
}

// alternateEngine is the reference engine an identity check compares
// against: another engine the equivalence suite holds equal to e.
func alternateEngine(e machine.Engine) machine.Engine {
	if e == machine.EngineAsync {
		return machine.EngineBatched
	}
	return machine.EngineAsync
}

// stamp identifies where and on what a result was measured.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Engine     string `json:"engine"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

func hostStamp() stamp {
	return stamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is HEAD with "-dirty" when the work tree has changes, or
// "unknown" outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil || len(status) > 0 {
		sha += "-dirty"
	}
	return sha
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's full result: what the compare step reads.
type record struct {
	Stamp     stamp             `json:"stamp"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pick returns every metric of defs from vals, failing on a metric the
// workload did not set when strict is true, and on any value set that
// defs does not declare.
func pick(defs []metricDef, vals map[string]float64, strict bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && strict {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// run executes workload wl under name and assembles its record.
func run(name string, wl workloadFunc, cfg config, traced bool) (*record, *tracer, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rep, err := wl(cfg, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	if rep.attempted < 1 {
		return nil, nil, fmt.Errorf("%s: no operations attempted", name)
	}
	rep.layer["failed_frac"] = float64(len(rep.failures)) / float64(rep.attempted)
	if traced {
		rep.layer["trace.norm_cpu_s"] = rep.e2e["norm_cpu_s"]
		rep.layer["trace.spans"] = float64(len(tr.spans))
	}
	rec := &record{
		Stamp:     hostStamp(),
		Attempted: rep.attempted,
		Failed:    len(rep.failures),
		Failures:  rep.failures,
	}
	rec.Stamp.Workload, rec.Stamp.Seed, rec.Stamp.Seconds = name, cfg.seed, cfg.seconds
	rec.Stamp.Trace, rec.Stamp.Engine = traced, rep.engine
	if rec.EndToEnd, err = pick(endToEnd, rep.e2e, true); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		if rec.PerLayer, err = pick(perLayer, rep.layer, false); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return rec, tr, nil
}

func (rec *record) result() result {
	m := rec.EndToEnd
	if rec.Stamp.Trace {
		m = rec.PerLayer
	}
	return result{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: m}
}

// buildDir is where build outputs and span files go.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain("BENCHMARK.json", os.Args[2:], os.Stdout, os.Stderr))
	}
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Uint64("seed", paperSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "nominal run length; the simulated work scales with it")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", "", "append the run's record to this JSON-lines file")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds}
	rec, tr, err := run(*name, wl, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	if tr != nil {
		path := filepath.Join(buildDir(), "perfbench-spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		tr.writeSummary(os.Stderr)
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendLine(*out, line); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", line, res)
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
