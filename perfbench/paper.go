package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"energysched/internal/experiments"
	"energysched/internal/scenario"
	"energysched/internal/stats"
	"energysched/internal/textplot"
)

// paperSeed is espower's default seed: the one the paper reproduction
// is published at, and the only seed with golden digests.
const paperSeed = 2006

// paperSetupWarmupMS is the simulated warm-up of paper-repro's set-up.
const paperSetupWarmupMS = 20000

// paperRun prints one espower experiment exactly as `espower <name>`
// does (ASCII output, default governor).
type paperRun func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error

// paperExperiment is one entry of `espower all`.
type paperExperiment struct {
	name string
	run  paperRun
}

// scaled shortens durations the way espower -quick does.
func scaled(quick bool, ms int64) int64 {
	if quick {
		return ms / 4
	}
	return ms
}

// paperExperiments lists the 18 experiments of `espower all` in its
// order. Each body mirrors cmd/espower's printing for that experiment;
// TestPaperMatchesEspower diffs the two byte for byte.
var paperExperiments = []paperExperiment{
	{"table1", func(_ experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		slices := 800
		if quick {
			slices = 300
		}
		fmt.Fprint(w, experiments.FormatTable1(experiments.Table1(seed, slices)))
		return nil
	}},
	{"table2", func(_ experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		rows, err := experiments.Table2(seed, int(scaled(quick, 60000)))
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatTable2(rows))
		return nil
	}},
	{"table3", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		cfg := experiments.DefaultTable3Config()
		cfg.Seed = seed
		cfg.WarmupMS = scaled(quick, cfg.WarmupMS)
		cfg.MeasureMS = scaled(quick, cfg.MeasureMS)
		res, err := rc.Table3(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatTable3(res))
		return nil
	}},
	{"fig3", func(_ experiments.RunConfig, _ uint64, _ bool, w io.Writer) error {
		res := experiments.Figure3()
		opt := textplot.DefaultOptions()
		opt.Title = "Figure 3: relation between temperature, power, and thermal power"
		opt.YUnit = "W"
		fmt.Fprint(w, textplot.Plot([]*stats.Series{res.Power, res.ThermalPower}, opt))
		opt2 := textplot.DefaultOptions()
		opt2.Title = "(temperature, same time axis)"
		opt2.YUnit = "C"
		fmt.Fprint(w, textplot.Plot([]*stats.Series{res.Temperature}, opt2))
		return nil
	}},
	{"fig6", thermalTrace(false)},
	{"fig7", thermalTrace(true)},
	{"fig8", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		cfg := experiments.DefaultFigure8Config()
		cfg.Seed = seed
		cfg.WarmupMS = scaled(quick, cfg.WarmupMS)
		cfg.MeasureMS = scaled(quick, cfg.MeasureMS)
		points, err := rc.Figure8(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 8: Dependence of throughput on the workload (#memrw/#pushpop/#bitcnts)")
		labels := make([]string, len(points))
		values := make([]float64, len(points))
		for i, p := range points {
			labels[i] = fmt.Sprintf("%d/%d/%d", p.Memrw, p.Pushpop, p.Bitcnts)
			values[i] = p.GainPct
		}
		fmt.Fprint(w, textplot.Bars(labels, values, "%", 40))
		return nil
	}},
	{"fig9", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		res := rc.Figure9(seed, scaled(quick, 200000))
		fmt.Fprint(w, experiments.FormatFigure9(res))
		s := stats.NewSeries("cpu", 1)
		for _, c := range res.CPUs {
			s.Append(float64(c))
		}
		opt := textplot.DefaultOptions()
		opt.Title = "Figure 9: hot task migration of a single task (CPU vs time)"
		opt.YMin, opt.YMax = -0.5, 15.5
		fmt.Fprint(w, textplot.Plot([]*stats.Series{s}, opt))
		return nil
	}},
	{"fig10", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		cfg := experiments.DefaultFigure10Config()
		cfg.Seed = seed
		cfg.WarmupMS = scaled(quick, cfg.WarmupMS)
		cfg.MeasureMS = scaled(quick, cfg.MeasureMS)
		points, err := rc.Figure10(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 10: hot task migration — throughput with multiple tasks")
		labels := make([]string, len(points))
		values := make([]float64, len(points))
		for i, p := range points {
			labels[i] = fmt.Sprintf("%d tasks", p.Tasks)
			values[i] = p.GainPct
		}
		fmt.Fprint(w, textplot.Bars(labels, values, "%", 40))
		return nil
	}},
	{"hotspeed", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		work := float64(scaled(quick, 60000))
		fmt.Fprint(w, experiments.FormatHotTaskSpeedup(rc.HotTaskSpeedup(seed, 40, work)))
		fmt.Fprint(w, experiments.FormatHotTaskSpeedup(rc.HotTaskSpeedup(seed, 50, work)))
		return nil
	}},
	{"migrations", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		mc, err := rc.MigrationCounts(seed, scaled(quick, 900000))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Migrations during the §6.1 mixed-workload runs:")
		fmt.Fprintf(w, "  SMT off: %4d disabled, %4d enabled   (paper: 3.3 vs 32)\n", mc.SMTOffDisabled, mc.SMTOffEnabled)
		fmt.Fprintf(w, "  SMT on:  %4d disabled, %4d enabled   (paper: 9.8 vs 87)\n", mc.SMTOnDisabled, mc.SMTOnEnabled)
		return nil
	}},
	{"ablation", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		rows := rc.AblationBalancerMetrics(seed, scaled(quick, 300000))
		fmt.Fprint(w, experiments.FormatAblation(rows))
		p := rc.AblationPlacement(seed, scaled(quick, 180000))
		fmt.Fprintf(w, "placement ablation (short tasks): full %+.1f%%, placement-only %+.1f%%, balancing-only %+.1f%%\n",
			p.GainFullPolicy*100, p.GainPlacementOnly*100, p.GainBalancingOnly*100)
		return nil
	}},
	{"cmp", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		fmt.Fprint(w, experiments.FormatCMP(rc.CMPHotTask(seed, scaled(quick, 180000))))
		return nil
	}},
	{"policies", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		fmt.Fprint(w, experiments.FormatPolicyComparison(rc.PolicyComparison(seed, scaled(quick, 240000))))
		return nil
	}},
	{"units", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		fmt.Fprint(w, experiments.FormatUnitAware(rc.UnitAware(seed, scaled(quick, 240000))))
		return nil
	}},
	{"dvfs", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		cfg := experiments.DefaultDVFSComparisonConfig()
		cfg.Seed = seed
		cfg.WorkMS = float64(scaled(quick, int64(cfg.WorkMS)))
		// espower's default -governor leads the comparison table.
		govs := []string{defaultGovernor()}
		for _, g := range cfg.Governors {
			if g != govs[0] {
				govs = append(govs, g)
			}
		}
		cfg.Governors = govs
		fmt.Fprint(w, experiments.FormatDVFSComparison(rc.DVFSvsThrottle(cfg)))
		return nil
	}},
	{"misestimate", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		cfg := experiments.DefaultMisestimateConfig()
		cfg.Seed = seed
		cfg.WorkMS = float64(scaled(quick, int64(cfg.WorkMS)))
		fmt.Fprint(w, experiments.FormatMisestimate(rc.Misestimate(cfg)))
		return nil
	}},
	{"sweeps", func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		hyst, err := rc.SweepHysteresis(seed, scaled(quick, 300000))
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatHysteresis(hyst))
		fmt.Fprintln(w)
		taus, err := rc.SweepTimeConstant(seed, scaled(quick, 300000))
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatTimeConstant(taus))
		fmt.Fprintln(w)
		gaps, err := rc.SweepDestGap(seed, scaled(quick, 300000))
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatDestGap(gaps))
		return nil
	}},
}

func thermalTrace(enabled bool) paperRun {
	return func(rc experiments.RunConfig, seed uint64, quick bool, w io.Writer) error {
		cfg := experiments.DefaultThermalTraceConfig(enabled)
		cfg.Seed = seed
		cfg.DurationMS = scaled(quick, cfg.DurationMS)
		res := rc.ThermalTrace(cfg)
		opt := textplot.DefaultOptions()
		fig, state := "6", "disabled"
		if enabled {
			fig, state = "7", "enabled"
		}
		opt.Title = fmt.Sprintf("Figure %s: thermal power of the 8 CPUs, energy balancing %s", fig, state)
		opt.YUnit = "W"
		opt.YMin, opt.YMax = 10, 65
		opt.HLine = 50
		fmt.Fprint(w, textplot.Plot(res.Series, opt))
		fmt.Fprintf(w, "band spread %.1f W, peak %.1f W, %d migrations\n", res.SpreadW, res.MaxW, res.Migrations)
		return nil
	}
}

// paperSection runs one experiment and returns its `espower all`
// section: the banner, the experiment's output, and a blank line.
func paperSection(e paperExperiment, rc experiments.RunConfig, seed uint64, quick bool) (string, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "==== %s ====\n", e.name)
	err := e.run(rc, seed, quick, &b)
	b.WriteString("\n")
	return b.String(), err
}

// paperGolden holds the sha256 of each `espower -j 1 all` section at
// seed 2006, full length, as printed at the commit that added the
// benchmark. The output is byte-identical on every engine and job
// count, so a changed digest is a changed result.
var paperGolden = map[string]string{
	"table1":      "3a5a17863443d91297677f8d4a28a67cdcae89f08f24a823269b6fd68740bc8b",
	"table2":      "3c4de511ac7371c01bf1d757b3521430a8a535069923dfbf001885bbee067dca",
	"table3":      "dda173b762acc48f5a9720984e125c768f3b98000e9b53b808dd5e7bae847352",
	"fig3":        "6925e359b4b0b16d950a8816012fce193a8c857dd96669e8a3855bc9afde1d57",
	"fig6":        "1db156ca1e2c8cc809d8088397021cec3439a08ae4af455232f5a78b912312d5",
	"fig7":        "b4e902724f9ef784c333bd16e2ff963e284661e7ab3c10dfb8c82403c733e418",
	"fig8":        "924a245f17e7c4cf15b4c4c441880420aa223a9a0dc7e21d4277ea4099bb07cc",
	"fig9":        "cefdb52b949fc6c016508794f4460702d7e03a189c0f0ac79fddab3ee486ea5b",
	"fig10":       "601b58603f25aea7d0eb26f969efe2eb156f53b19ac501c6e3b52725195259d9",
	"hotspeed":    "4edc4b819ff3bf0312a5553fb2e845b88453a6cb34254cae4c9e6171bf828987",
	"migrations":  "a2342fd9a7b14d123373f5eb7c75366b3be4dde0e2e34944152f393f6e32e45c",
	"ablation":    "16efcf0ddd06e319fe9be8a6b2dd3e902209e2f1067a86d4821f16a2de0f741f",
	"cmp":         "05a396ea8c01923c2994c06ec627f7590be6c75b0c55bdbd4c4c593ff3bccd65",
	"policies":    "453e3619fd5d9cc3b506a9fc4583f48c5bab9d29bb6384c101896a19ab4afc2f",
	"units":       "3b6849c202f852313d3e3301e2d8226267c7fd2fdb1a3b27d7c3f423f74e63fe",
	"dvfs":        "23c7b98e27bf8e687edc32964c5652ddf2919c0e9b4e6fc02a887a25ce2ed4e5",
	"misestimate": "e7a49bba8d66a95bf924160a6edc88098ba702bff42f117f5a809600d765a6c0",
	"sweeps":      "9e0fd2a1dda2d232bbce3593b034ba0e532e6d1bd78ed16cb02af77f6bbdc74f",
}

// paperIdentityRuns are the experiments re-run on another engine and
// job count to check a non-golden seed: the cross-engine and
// job-count invariance the code promises for every seed. fig6 and cmp
// are cheap machine runs; sweeps is the cheapest experiment that fans
// out on the worker pool.
var paperIdentityRuns = []string{"fig6", "cmp", "sweeps"}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// runPaper is the paper-repro workload: the 18 experiments one after
// another on one worker, as `espower -j 1 all` runs them, once per
// pass; every pass must print what the first did.
func runPaper(cfg config, tr *tracer) (*report, error) {
	rc := experiments.RunConfig{Jobs: 1, Engine: defaultEngine()}
	rep := newReport(rc.Engine.String())

	// Set-up: stand up the paper's machine, the §6.1 mixed workload on
	// the xSeries 445, as the other workloads stand up theirs.
	spec, err := scenario.Named("mixed")
	if err != nil {
		return nil, err
	}
	spec.Seed = cfg.seed
	if _, rep.e2e["setup_s"], err = buildWarm(spec, rc.Engine, paperSetupWarmupMS, tr); err != nil {
		return nil, err
	}
	rep.layer["scenario.build_ms"] = median(tr.durations("setup", "scenario.build"))

	mt, err := newMeter(true)
	if err != nil {
		return nil, err
	}
	defer mt.close()
	w := startWindow()
	sections := make([]string, len(paperExperiments))
	bad := make([]string, len(paperExperiments)) // first failure per experiment
	for p := 0; p < passes; p++ {
		for i, e := range paperExperiments {
			tok := tr.begin("window", e.name, "experiments."+e.name)
			mt.start()
			s, err := paperSection(e, rc, cfg.seed, cfg.quick)
			mt.stop()
			tr.end(tok)
			switch {
			case bad[i] != "":
			case err != nil:
				bad[i] = err.Error()
			case p == 0:
				sections[i] = s
			case s != sections[i]:
				bad[i] = fmt.Sprintf("pass %d output differs from pass 0", p)
			}
		}
	}
	if err := w.stop(rep, mt, passes); err != nil {
		return nil, err
	}
	for _, e := range paperExperiments {
		rep.layer["experiments."+e.name+"_s"] = tr.total("window", "experiments."+e.name).Seconds() / passes
	}

	// Checks, outside the timed window.
	for i, s := range sections {
		if bad[i] == "" {
			bad[i] = checkSection(paperExperiments[i].name, s, cfg)
		}
	}
	alt := experiments.RunConfig{Jobs: 2, Engine: alternateEngine(rc.Engine)}
	for _, name := range paperIdentityRuns {
		i := paperIndex(name)
		if bad[i] != "" {
			continue
		}
		if s, err := paperSection(paperExperiments[i], alt, cfg.seed, cfg.quick); err != nil || s != sections[i] {
			bad[i] = fmt.Sprintf("output differs on engine %s with 2 jobs", alt.Engine)
		}
	}
	rep.attempted = len(paperExperiments)
	for i, msg := range bad {
		if msg != "" {
			rep.fail("%s: %s", paperExperiments[i].name, msg)
		}
	}
	return rep, nil
}

// checkSection returns why an experiment's section is wrong, or "".
// At the paper's seed and full length it must match the golden digest;
// at any seed it must hold no NaN.
func checkSection(name, s string, cfg config) string {
	switch {
	case strings.Contains(s, "NaN"):
		return "output contains NaN"
	case cfg.seed == paperSeed && !cfg.quick && digest(s) != paperGolden[name]:
		return fmt.Sprintf("digest %s differs from the seed-%d golden", digest(s)[:12], paperSeed)
	}
	return ""
}

func paperIndex(name string) int {
	for i, e := range paperExperiments {
		if e.name == name {
			return i
		}
	}
	panic("perfbench: unknown paper experiment " + name)
}
