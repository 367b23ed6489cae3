package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"energysched/internal/experiments"
	"energysched/internal/farm"
)

// declaration is BENCHMARK.json as the tests read it.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkEmitted fails unless got holds exactly the declared metrics, in
// the declared units.
func checkEmitted(t *testing.T, what string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, declared %d", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s in %q, declared %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

// tiny is the shortest run of every workload.
var tiny = config{seed: 3, seconds: 1, quick: true}

// exercised lists, per workload, counts that must move on it, so the
// repeat check below does not compare zeros.
var exercised = map[string][]string{
	"server1024-saturated": {"sched.balance_fires", "sched.hot_fires", "sched.hot_rearms", "machine.run_calls"},
	"server1024-wide-idle": {"sched.idle_pull_fires", "machine.run_calls"},
	"farm-sweeps":          {"farm.cache_hits", "farm.cache_misses"},
}

// TestWorkloadsEmitDeclaredMetricsAndRepeatCounts runs every declared
// workload twice at the shortest length, traced. Each run must pass
// its checks and emit exactly the declared metrics; the two runs must
// agree exactly on the counts the program makes.
func TestWorkloadsEmitDeclaredMetricsAndRepeatCounts(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Errorf("declared workload %s is not implemented", w.Name)
			continue
		}
		var recs [2]*record
		for i := range recs {
			rec, _, err := run(w.Name, wl, tiny, true)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 {
				t.Errorf("%s: %d of %d operations failed: %v", w.Name, rec.Failed, rec.Attempted, rec.Failures)
			}
			recs[i] = rec
		}
		checkEmitted(t, w.Name+" end-to-end", recs[0].EndToEnd, d.EndToEnd)
		checkEmitted(t, w.Name+" per-layer", recs[0].PerLayer, d.PerLayer)
		for name, m := range recs[0].EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, name, m.Value)
			}
		}
		for name, m := range recs[0].PerLayer {
			counted := strings.HasPrefix(name, "sched.") || strings.HasPrefix(name, "farm.cache_") || name == "machine.run_calls"
			if counted && recs[1].PerLayer[name] != m {
				t.Errorf("%s: count %s differs between runs: %v vs %v", w.Name, name, m.Value, recs[1].PerLayer[name].Value)
			}
		}
		for _, name := range exercised[w.Name] {
			if recs[0].PerLayer[name].Value == 0 {
				t.Errorf("%s: %s is 0", w.Name, name)
			}
		}
		if res := recs[0].result(); !res.Correct || len(res.Metrics) != len(d.PerLayer) {
			t.Errorf("%s: traced result %+v", w.Name, res)
		}
	}
}

// TestInjectedFailureCounts sends one request for a scenario that does
// not exist: it must count as a failed operation, not vanish.
func TestInjectedFailureCounts(t *testing.T) {
	reqs := append(farmRequests(1, farmMinPhases), farm.SweepRequest{Name: "no/such-scenario", MeasureMS: 100, Seeds: []uint64{1}})
	rec, _, err := run("farm-sweeps", func(_ config, tr *tracer) (*report, error) { return serveFarm(1, reqs, tr) }, tiny, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 1 || rec.Attempted != len(reqs) {
		t.Fatalf("failed %d of %d, want 1 of %d: %v", rec.Failed, rec.Attempted, len(reqs), rec.Failures)
	}
	if got, want := rec.PerLayer["failed_frac"].Value, 1/float64(len(reqs)); got != want {
		t.Errorf("failed_frac = %v, want %v", got, want)
	}
	if rec.result().Correct {
		t.Errorf("result %+v", rec.result())
	}
	if !strings.Contains(rec.Failures[0], "HTTP 400") {
		t.Errorf("failure %q, want the HTTP 400", rec.Failures[0])
	}
}

// TestWrongDigestFails: at the paper's seed and full length a section
// that differs from the golden output is a failure.
func TestWrongDigestFails(t *testing.T) {
	full := config{seed: paperSeed, seconds: 1}
	if msg := checkSection("table1", "==== table1 ====\nnot the table\n\n", full); msg == "" {
		t.Error("a wrong table1 passed the golden check")
	}
	if msg := checkSection("fig3", "==== fig3 ====\n NaN W\n\n", config{seed: 5, seconds: 1}); msg == "" {
		t.Error("a NaN passed at a non-golden seed")
	}
	if len(paperGolden) != len(paperExperiments) {
		t.Errorf("%d golden digests for %d experiments", len(paperGolden), len(paperExperiments))
	}
}

func TestTailPercentile(t *testing.T) {
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending, so the helper must sort
		}
		return v
	}
	for _, n := range []int{0, 1, 19, 99} {
		if _, err := tailPercentile(vals(n), 0.9); err == nil {
			t.Errorf("p90 of %d samples reported with fewer than %d beyond it", n, minBeyond)
		}
	}
	got, err := tailPercentile(vals(100), 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", got, err)
	}
	if _, err := tailPercentile(vals(100), 0.95); err == nil {
		t.Error("p95 of 100 samples has only 5 beyond it")
	}
}

// TestMeter measures the same work pinned and unpinned: every unit is
// normalized, the least of three passes over one unit is at most half
// their sum, and closing gives the thread back every CPU it had.
func TestMeter(t *testing.T) {
	before, err := getAffinity()
	if err != nil {
		t.Fatal(err)
	}
	table, heap := make([]uint64, refTableLen), make([]float64, 0, refHeapCap)
	for _, pinned := range []bool{true, false} {
		mt, err := newMeter(pinned)
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			mt.start()
			for range 200 {
				refSinkForTest += refKernel(table, heap)
			}
			mt.stop()
		}
		if err := mt.close(); err != nil {
			t.Fatal(err)
		}
		after, err := getAffinity()
		if err != nil {
			t.Fatal(err)
		}
		if len(mt.norms) != 3 || mt.least(3) <= 0 || mt.least(3) > mt.least(1)/2 || mt.cpu <= 0 || mt.speed <= 0 {
			t.Errorf("pinned=%v: norms %v, cpu %v, speed %v", pinned, mt.norms, mt.cpu, mt.speed)
		}
		if len(after) != len(before) {
			t.Errorf("pinned=%v: close left the thread on CPUs %v, had %v", pinned, after, before)
		}
	}
}

var refSinkForTest float64

// TestPaperMatchesEspower diffs the benchmark's copy of espower's
// printing against the real command, at a non-golden seed.
func TestPaperMatchesEspower(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "espower")
	if out, err := exec.Command("go", "build", "-o", bin, "energysched/cmd/espower").CombinedOutput(); err != nil {
		t.Fatalf("build espower: %v\n%s", err, out)
	}
	want, err := exec.Command(bin, "-quick", "-seed", "11", "-j", "1", "all").Output()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range paperExperiments {
		s, err := paperSection(e, experiments.RunConfig{Jobs: 1, Engine: defaultEngine()}, 11, true)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(s)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("benchmark output (%d bytes) differs from espower -quick all (%d bytes)", got.Len(), len(want))
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu, sha string, walls ...float64) string {
		var b bytes.Buffer
		for _, wall := range walls {
			line, _ := json.Marshal(record{
				Stamp:    stamp{Workload: "paper-repro", CPUModel: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GitSHA: sha},
				EndToEnd: map[string]metric{"norm_cpu_s": {wall, "s"}},
			})
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", "cpu A", "abc", 10, 10.2, 9.9, 10.1)
	same := write("same", "cpu A", "def", 10.1, 10, 10.3, 9.8)
	slow := write("slow", "cpu A", "def", 20, 20.4, 19.8, 20.1)
	noisy := write("noisy", "cpu A", "def", 10, 14, 7, 12)
	noisyFast := write("noisy-fast", "cpu A", "def", 5, 7, 3.5, 6)
	single := write("single", "cpu A", "def", 20)
	other := write("other", "cpu B", "def", 10.1, 10, 10.3, 9.8)
	dirty := write("dirty", "cpu A", "def-dirty", 10.1, 10, 10.3, 9.8)
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{base, same}, 0},
		{[]string{base, slow}, 1},
		{[]string{base, noisy}, 3},     // spread 0.5 > bound: unresolved, not ok
		{[]string{base, noisyFast}, 0}, // noisy, but every new run is faster
		{[]string{base, single}, 3},    // one run has no spread
		{[]string{base, other}, 2},
		{[]string{base, dirty}, 2},
		{[]string{"-force", base, other}, 0},
		{[]string{"-force", base, dirty}, 0},
	} {
		if got := compareMain(filepath.Join("..", "BENCHMARK.json"), c.args, io.Discard, io.Discard); got != c.want {
			t.Errorf("compare %v = %d, want %d", c.args, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(vals, n=4), the spread the bounds are set by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 10.2, 9.9, 10.1}, 9.925, 10.175},
	} {
		q1, q3, ok := quartiles(c.vals)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.vals, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported")
	}
}

// TestRebuildBodyMatchesDirect: the rebuild reference the farm check
// uses must write the same bytes as Server.Direct on a correct tree,
// on both engine settings the traffic uses.
func TestRebuildBodyMatchesDirect(t *testing.T) {
	rc := experiments.RunConfig{Jobs: 2, Engine: defaultEngine()}
	ref := farm.NewServer(rc, 1<<30, nil)
	for _, engine := range farmEngines {
		req := farm.SweepRequest{Name: "engines/steady-state", Engine: engine, WarmupMS: 300, MeasureMS: 200, Seeds: []uint64{4, 9}}
		var want bytes.Buffer
		if err := ref.Direct(&want, req); err != nil {
			t.Fatal(err)
		}
		got, err := rebuildBody(rc, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("engine %q: rebuild body\n%s\ndiffers from Direct\n%s", engine, got, want.Bytes())
		}
	}
}
