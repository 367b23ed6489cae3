// Package benchscen defines the engine benchmark scenarios once, for
// both consumers that measure them: the go-test benchmarks
// (internal/machine BenchmarkEngines / BenchmarkLargeTopology) and the
// perf-trajectory recorder (cmd/esbench, which writes BENCH_<date>.json
// and the CI artifact). The machine configurations themselves live in
// the shared scenario catalog (internal/scenario, the same names
// esfarmd serves); this package only adds the timing envelopes — chunk
// and warm-up lengths, and whether a case excludes lockstep. A single
// definition keeps the committed trajectory comparable with
// `go test -bench` numbers and with farm sweeps of the same names.
package benchscen

import (
	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// Scenario is one benchmark case: a catalog scenario plus its timing
// envelope, shared across engines.
type Scenario struct {
	// Name identifies the case and is also its key in the scenario
	// catalog ("engines/idle-heavy", "large/256cpu/saturated", ...).
	Name string
	// Spec is the catalog entry the machine is built from.
	Spec scenario.Spec
	// SimChunkMS is the simulated milliseconds per timed iteration.
	SimChunkMS int64
	// WarmupMS settles dispatch/placement transients before timing.
	WarmupMS int64
	// SkipLockstep excludes the lockstep engine (on the largest
	// layouts it is pure waiting).
	SkipLockstep bool
}

// New builds the machine, workload spawned, on the given engine.
func (s Scenario) New(e machine.Engine) *machine.Machine {
	m, err := s.Spec.Build(e, nil)
	if err != nil {
		panic("benchscen: " + s.Name + ": " + err.Error())
	}
	return m
}

// Skips reports whether the scenario excludes an engine.
func (s Scenario) Skips(e machine.Engine) bool {
	return s.SkipLockstep && e == machine.EngineLockstep
}

func fromCatalog(name string, chunkMS, warmupMS int64, skipLockstep bool) Scenario {
	return Scenario{
		Name:         name,
		Spec:         scenario.MustNamed(name),
		SimChunkMS:   chunkMS,
		WarmupMS:     warmupMS,
		SkipLockstep: skipLockstep,
	}
}

// Engines returns the four workload regimes that bound the engines'
// speedups: idle-heavy (a large machine where most CPUs sleep while a
// few run hot — the async engine's case), steady-state (saturated;
// quanta bounded by balance/hot-check deadlines, nothing to park),
// churn-heavy (completions, respawns, and throttle oscillation shrink
// the quanta), and dvfs-thermal (governor deadlines cap the quanta of
// busy CPUs at the evaluation period and pending transitions add
// planner horizons — what the thermal governor costs each engine on a
// hot mixed workload).
func Engines() []Scenario {
	return []Scenario{
		fromCatalog("engines/idle-heavy", 10_000, 5_000, false),
		fromCatalog("engines/steady-state", 10_000, 5_000, false),
		fromCatalog("engines/churn-heavy", 10_000, 5_000, false),
		fromCatalog("engines/dvfs-thermal", 10_000, 5_000, false),
	}
}

// Large returns the larger-than-paper layouts (ROADMAP: 64–256 logical
// CPUs) in the two regimes that matter at scale: mostly-idle (a few
// hot tasks on a big box) and saturated (planner cost dominates) —
// plus wide-idle at the two largest layouts: interactive
// (mostly-blocked) tasks only, so nearly all CPUs park and the quantum
// is bounded by wake-ups alone — the regime the event-driven deadline
// scheduler and the lifted MaxQuantumMS cap target. (The 1024-CPU
// wide-idle budget is 360 W so the per-core budget stays level with
// the 256-CPU run's; at 120 W the quad-core packages' tighter cores
// would sit at budget under a single busy task and the pair would
// compare hot-migration storms instead of engine scaling.)
func Large() []Scenario {
	var out []Scenario
	for _, name := range []string{"64cpu", "256cpu", "1024cpu"} {
		skip := name != "64cpu"
		out = append(out,
			fromCatalog("large/"+name+"/mostly-idle", 5_000, 3_000, skip),
			fromCatalog("large/"+name+"/saturated", 5_000, 3_000, skip),
		)
	}
	out = append(out,
		fromCatalog("large/256cpu/wide-idle", 5_000, 3_000, true),
		fromCatalog("large/1024cpu/wide-idle", 5_000, 3_000, true),
	)
	return out
}

// All returns every benchmark scenario.
func All() []Scenario { return append(Engines(), Large()...) }
