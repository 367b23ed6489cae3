package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// A workload repeats its set-up at least setupMinRuns times and until
// setupMinTime has passed, and setup_s is the median normalized time
// (meter), so that set-ups of a few milliseconds get enough samples to
// be steady.
const (
	setupMinRuns = 7
	setupMinTime = time.Second
)

// repeatSetup runs setup as described above, under a meter pinned or
// not, and returns the median time in seconds. A non-nil undo runs,
// untimed, before every repeat.
func repeatSetup(pinned bool, setup, undo func() error) (float64, error) {
	mt, err := newMeter(pinned)
	if err != nil {
		return 0, err
	}
	defer mt.close()
	start := time.Now()
	for len(mt.units) < setupMinRuns || time.Since(start) < setupMinTime {
		if undo != nil && len(mt.units) > 0 {
			if err := undo(); err != nil {
				return 0, err
			}
		}
		mt.start()
		if err := setup(); err != nil {
			return 0, err
		}
		mt.stop()
	}
	if err := mt.close(); err != nil {
		return 0, err
	}
	times := make([]float64, len(mt.norms))
	for i, n := range mt.norms {
		times[i] = n.Seconds()
	}
	return median(times), nil
}

// serverLoad is one 1024-CPU catalog scenario run as a warmed-up
// machine followed by a timed window of equal simulated chunks.
type serverLoad struct {
	scenario string
	warmupMS int64
	chunkMS  int64
	// chunksPerSecond scales the window with --seconds: the window is
	// seconds × chunksPerSecond chunks of simulated time.
	chunksPerSecond int
}

var (
	// saturated: quanta are bounded by the balance and hot-check
	// deadlines and nothing parks (~1 s host per 5 s simulated).
	saturated = serverLoad{"large/1024cpu/saturated", 2000, 1000, 5}
	// wideIdle: quanta are bounded by wake-ups and idle-pull passes
	// dominate on the default engine (~0.3 s host per 5 s simulated).
	wideIdle = serverLoad{"large/1024cpu/wide-idle", 2000, 1000, 15}
)

// buildWarm is a workload's set-up: it builds the scenario's machine
// and runs the warm-up, repeatedly (repeatSetup), and returns the last
// machine with the median set-up time in seconds.
func buildWarm(spec scenario.Spec, engine machine.Engine, warmupMS int64, tr *tracer) (*machine.Machine, float64, error) {
	var m *machine.Machine
	setup, err := repeatSetup(true, func() error {
		tok := tr.begin("setup", "", "scenario.build")
		var err error
		m, err = spec.Build(engine, nil)
		tr.end(tok)
		if err != nil {
			return fmt.Errorf("build %s: %w", spec.Name, err)
		}
		tok = tr.begin("setup", "", "machine.run")
		m.Run(warmupMS)
		tr.end(tok)
		return nil
	}, nil)
	return m, setup, err
}

// runServer builds and warms the scenario's machine (set-up), then
// times Machine.Run over the window chunk by chunk, once per pass. The
// check re-runs the same chunks on the alternate engine and compares
// the simulated statistics after every chunk under the cross-engine
// contract; every pass must match the first exactly.
func runServer(l serverLoad, cfg config, tr *tracer) (*report, error) {
	spec, err := scenario.Named(l.scenario)
	if err != nil {
		return nil, err
	}
	spec.Seed = cfg.seed
	engine := defaultEngine()
	rep := newReport(engine.String())

	m, setup, err := buildWarm(spec, engine, l.warmupMS, tr)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.layer["scenario.build_ms"] = median(tr.durations("setup", "scenario.build"))

	// Every pass runs the window on its own branch of the warmed
	// machine, so all passes simulate the same chunks. Snapshots,
	// counters and invariants are the checks', outside the timed units.
	chunks := cfg.seconds * l.chunksPerSecond
	bad := make([]string, chunks) // first failure per chunk
	snaps := make([]*machine.Snapshot, 0, chunks)
	var invariants error // at the end of pass 0
	mt, err := newMeter(true)
	if err != nil {
		return nil, err
	}
	defer mt.close()
	w := startWindow()
	for p := 0; p < passes; p++ {
		mp, err := m.Branch(nil)
		if err != nil {
			return nil, fmt.Errorf("branch %s: %w", l.scenario, err)
		}
		// Each pass starts from the same heap, so peak RSS does not
		// depend on when the collector last ran.
		runtime.GC()
		counts0 := schedCounts(mp)
		for c := 0; c < chunks; c++ {
			tok := tr.begin("window", "chunk-"+strconv.Itoa(c), "machine.run")
			mt.start()
			mp.Run(l.chunkMS)
			mt.stop()
			tr.end(tok)
			if p == 0 {
				snaps = append(snaps, mp.Snapshot())
			} else if diffs := machine.DiffSnapshots(snaps[c], mp.Snapshot(), 0); len(diffs) > 0 && bad[c] == "" {
				bad[c] = fmt.Sprintf("pass %d: %d differences from pass 0, first: %s", p, len(diffs), diffs[0])
			}
		}
		if p == 0 {
			for name, v := range schedCounts(mp) {
				rep.layer[name] = v - counts0[name]
			}
			invariants = mp.CheckInvariants()
		}
	}
	if err := w.stop(rep, mt, passes); err != nil {
		return nil, err
	}
	nCPU := spec.Topology.Layout().NumLogical()
	rep.layer["sim_cpu_ms_per_s"] = float64(int64(nCPU)*int64(chunks)*l.chunkMS) / rep.layer["wall_s"]
	rep.layer["machine.run_s"] = tr.total("window", "machine.run").Seconds() / passes
	rep.layer["machine.run_calls"] = float64(len(tr.durations("window", "machine.run")) / passes)

	// Check: the alternate engine, run over the same chunks, must reach
	// the same statistics (DeadlineFires differ by engine and are not
	// part of a Snapshot).
	ref, err := spec.Build(alternateEngine(engine), nil)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", l.scenario, err)
	}
	ref.Run(l.warmupMS)
	for c, got := range snaps {
		ref.Run(l.chunkMS)
		if diffs := machine.DiffSnapshots(ref.Snapshot(), got, equivTol); len(diffs) > 0 && bad[c] == "" {
			bad[c] = fmt.Sprintf("%d differences from engine %s, first: %s", len(diffs), ref.Cfg.Engine, diffs[0])
		}
	}
	if invariants != nil && bad[chunks-1] == "" {
		bad[chunks-1] = invariants.Error()
	}
	rep.attempted = chunks
	for c, msg := range bad {
		if msg != "" {
			rep.fail("chunk %d: %s", c, msg)
		}
	}
	return rep, nil
}

// schedCounts reads the scheduler counters a server window reports.
func schedCounts(m *machine.Machine) map[string]float64 {
	bal, idle, hot, gov := m.DeadlineFires()
	ds := m.DeadlineStats()
	return map[string]float64{
		"sched.balance_fires":   float64(bal),
		"sched.idle_pull_fires": float64(idle),
		"sched.hot_fires":       float64(hot),
		"sched.gov_fires":       float64(gov),
		"sched.hot_arms":        float64(ds.HotArms),
		"sched.hot_rearms":      float64(ds.HotRearms),
		"sched.hot_stale":       float64(ds.HotStale),
		"sched.migrations":      float64(m.MigrationCount()),
	}
}

// equivTol is the cross-engine float tolerance (TestEngineEquivalence).
const equivTol = 1e-6
