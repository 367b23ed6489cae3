package machine_test

import (
	"strings"
	"testing"

	"energysched/internal/machine"
	"energysched/internal/machine/benchscen"
)

// Engine benchmarks: the lockstep 1 ms loop versus the batched
// event-horizon engine versus the async discrete-event engine. The scenario
// definitions live in benchscen, shared with cmd/esbench so the
// committed BENCH_<date>.json trajectory measures exactly these cases.
// Each benchmark reports simulated CPU-milliseconds per wall second.

var engineSet = []machine.Engine{machine.EngineLockstep, machine.EngineBatched, machine.EngineAsync}

func runScenario(b *testing.B, sc benchscen.Scenario, e machine.Engine) {
	m := sc.New(e)
	m.Run(sc.WarmupMS) // settle dispatch/placement transients
	nCPU := float64(m.Cfg.Layout.NumLogical())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(sc.SimChunkMS)
	}
	b.ReportMetric(float64(b.N)*float64(sc.SimChunkMS)*nCPU/b.Elapsed().Seconds(), "cpu-ms/s")
}

// BenchmarkEngines compares the three engines on the three workload
// regimes that bound their speedups, e.g.
//
//	go test ./internal/machine -bench BenchmarkEngines -benchtime 2s
//
// The acceptance targets: batched ≥3× lockstep on steady-state; async
// ≥2× batched on idle-heavy and within 1.1× of batched on
// steady-state.
func BenchmarkEngines(b *testing.B) {
	for _, sc := range benchscen.Engines() {
		for _, e := range engineSet {
			if sc.Skips(e) {
				continue
			}
			b.Run(strings.TrimPrefix(sc.Name, "engines/")+"/"+e.String(), func(b *testing.B) {
				runScenario(b, sc, e)
			})
		}
	}
}

// BenchmarkLargeTopology profiles the per-quantum planner and the
// engines on larger-than-paper machines (ROADMAP: 64–256 logical
// CPUs). Lockstep is skipped on the 256-CPU layout; at that size it is
// pure waiting.
func BenchmarkLargeTopology(b *testing.B) {
	for _, sc := range benchscen.Large() {
		for _, e := range engineSet {
			if sc.Skips(e) {
				continue
			}
			b.Run(strings.TrimPrefix(sc.Name, "large/")+"/"+e.String(), func(b *testing.B) {
				runScenario(b, sc, e)
			})
		}
	}
}
