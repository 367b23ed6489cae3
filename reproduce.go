package energysched

import (
	"energysched/internal/experiments"
)

// Re-exported experiment result types.
type (
	// Table1Row is one program's successive-timeslice power change.
	Table1Row = experiments.Table1Row
	// Table2Row is one program's measured power.
	Table2Row = experiments.Table2Row
	// Table3Result is the §6.2 throttling/throughput comparison.
	Table3Result = experiments.Table3Result
	// Figure3Result holds the temperature/power/thermal-power curves.
	Figure3Result = experiments.Figure3Result
	// ThermalTraceResult holds the Fig. 6/7 per-CPU curves.
	ThermalTraceResult = experiments.ThermalTraceResult
	// Figure8Point is one workload-mix throughput gain.
	Figure8Point = experiments.Figure8Point
	// Figure9Result is the single-hot-task migration trace.
	Figure9Result = experiments.Figure9Result
	// Figure10Point is one task-count throughput gain.
	Figure10Point = experiments.Figure10Point
	// HotTaskSpeedupResult is the §6.4 execution-time comparison.
	HotTaskSpeedupResult = experiments.HotTaskSpeedupResult
	// MigrationCountsResult is the §6.1 migration accounting.
	MigrationCountsResult = experiments.MigrationCountsResult
	// CMPResult is the §7 chip-multiprocessor extension experiment.
	CMPResult = experiments.CMPResult
	// AblationResult is one §4.3 balancer-metric ablation row.
	AblationResult = experiments.AblationResult
	// PolicyComparisonResult compares CPU/task throttling vs migration.
	PolicyComparisonResult = experiments.PolicyComparisonResult
	// UnitAwareResult is the §7 functional-unit extension experiment.
	UnitAwareResult = experiments.UnitAwareResult
	// DVFSComparisonResult tabulates DVFS governors against hlt
	// throttling as thermal-limit enforcement knobs.
	DVFSComparisonResult = experiments.DVFSComparisonResult

	// RunConfig carries the execution knobs of a reproduction run —
	// simulation engine, worker-pool size, parallel-engine shard count.
	// Results never depend on it: every experiment is byte-identical
	// for every RunConfig (the cross-engine equivalence tests enforce
	// the engine half, the deterministic worker pool the jobs half).
	RunConfig = experiments.RunConfig
)

// A Reproducer regenerates the paper's tables and figures under an
// explicit RunConfig. The zero value (async engine, GOMAXPROCS
// workers) is ready to use:
//
//	var r energysched.Reproducer
//	rows := r.Table1(7, 300)
type Reproducer struct {
	// RC is the execution configuration shared by every experiment the
	// Reproducer runs.
	RC RunConfig
}

// Table1 regenerates Table 1 (per-timeslice power change).
func (r Reproducer) Table1(seed uint64, slices int) []Table1Row {
	return experiments.Table1(seed, slices)
}

// Table2 regenerates Table 2 (program powers) from a solo run of runMS
// milliseconds per program. It returns an error when the §3.2
// energy-weight calibration the table depends on fails.
func (r Reproducer) Table2(seed uint64, runMS int) ([]Table2Row, error) {
	return experiments.Table2(seed, runMS)
}

// Table3 regenerates Table 3 (CPU throttling percentages and the §6.2
// throughput gain) with the default configuration. It returns an error
// when the §3.2 calibration fails.
func (r Reproducer) Table3(seed uint64) (Table3Result, error) {
	cfg := experiments.DefaultTable3Config()
	cfg.Seed = seed
	return r.RC.Table3(cfg)
}

// Figure3 regenerates the Fig. 3 temperature/power/thermal-power
// relationship.
func (r Reproducer) Figure3() Figure3Result { return experiments.Figure3() }

// Figure6 regenerates Fig. 6 (thermal power of the eight CPUs, energy
// balancing disabled); Figure7 the enabled counterpart.
func (r Reproducer) Figure6(seed uint64) ThermalTraceResult {
	cfg := experiments.DefaultThermalTraceConfig(false)
	cfg.Seed = seed
	return r.RC.ThermalTrace(cfg)
}

// Figure7 regenerates Fig. 7 (energy balancing enabled).
func (r Reproducer) Figure7(seed uint64) ThermalTraceResult {
	cfg := experiments.DefaultThermalTraceConfig(true)
	cfg.Seed = seed
	return r.RC.ThermalTrace(cfg)
}

// Figure8 regenerates the Fig. 8 workload-homogeneity sweep. It
// returns an error when one of the parallel runs fails (a recovered
// worker panic, surfaced on its owning sweep slot).
func (r Reproducer) Figure8(seed uint64) ([]Figure8Point, error) {
	cfg := experiments.DefaultFigure8Config()
	cfg.Seed = seed
	return r.RC.Figure8(cfg)
}

// Figure9 regenerates the Fig. 9 hot-task migration trace over
// durationMS milliseconds.
func (r Reproducer) Figure9(seed uint64, durationMS int64) Figure9Result {
	return r.RC.Figure9(seed, durationMS)
}

// Figure10 regenerates the Fig. 10 multi-task sweep. It returns an
// error when one of the parallel runs fails.
func (r Reproducer) Figure10(seed uint64) ([]Figure10Point, error) {
	cfg := experiments.DefaultFigure10Config()
	cfg.Seed = seed
	return r.RC.Figure10(cfg)
}

// HotTaskSpeedup regenerates the §6.4 execution-time numbers for a
// package budget.
func (r Reproducer) HotTaskSpeedup(seed uint64, budgetW float64) HotTaskSpeedupResult {
	return r.RC.HotTaskSpeedup(seed, budgetW, 60_000)
}

// MigrationCounts regenerates the §6.1 migration counts over
// durationMS milliseconds per run (the paper uses 15 minutes). It
// returns an error when one of the parallel runs fails.
func (r Reproducer) MigrationCounts(seed uint64, durationMS int64) (MigrationCountsResult, error) {
	return r.RC.MigrationCounts(seed, durationMS)
}

// CMP runs the §7 chip-multiprocessor extension: hot task migration
// with the additional "mc" domain level on a machine of dual-core
// packages.
func (r Reproducer) CMP(seed uint64, durationMS int64) CMPResult {
	return r.RC.CMPHotTask(seed, durationMS)
}

// Ablations runs the §4.3 balancer-metric ablation.
func (r Reproducer) Ablations(seed uint64, durationMS int64) []AblationResult {
	return r.RC.AblationBalancerMetrics(seed, durationMS)
}

// PolicyComparison quantifies §2.3: CPU throttling vs hot-task
// throttling vs energy-aware scheduling.
func (r Reproducer) PolicyComparison(seed uint64, measureMS int64) PolicyComparisonResult {
	return r.RC.PolicyComparison(seed, measureMS)
}

// UnitAware runs the §7 functional-unit extension experiment.
func (r Reproducer) UnitAware(seed uint64, measureMS int64) UnitAwareResult {
	return r.RC.UnitAware(seed, measureMS)
}

// DVFSComparison runs the enforcement comparison the paper could not:
// DVFS governors vs §6.2 hlt throttling on the hot-task scenario —
// energy, makespan, peak temperature, and the halted vs downclocked
// fractions.
func (r Reproducer) DVFSComparison(seed uint64) DVFSComparisonResult {
	cfg := experiments.DefaultDVFSComparisonConfig()
	cfg.Seed = seed
	return r.RC.DVFSvsThrottle(cfg)
}

// legacyReproducer snapshots the deprecated SetParallelism state for
// the package-level Reproduce* wrappers.
func legacyReproducer() Reproducer { return Reproducer{RC: experiments.LegacyRunConfig()} }

// SetParallelism bounds the worker pool the package-level Reproduce*
// sweeps use for their independent runs: 0 restores the default
// (GOMAXPROCS), 1 forces sequential execution. Results are
// byte-identical for every worker count.
//
// Deprecated: set RunConfig.Jobs on a Reproducer instead of mutating
// package state.
func SetParallelism(jobs int) { experiments.Jobs = jobs }

// ReproduceTable1 regenerates Table 1 (per-timeslice power change).
//
// Deprecated: use Reproducer.Table1.
func ReproduceTable1(seed uint64, slices int) []Table1Row {
	return legacyReproducer().Table1(seed, slices)
}

// ReproduceTable2 regenerates Table 2 (program powers).
//
// Deprecated: use Reproducer.Table2.
func ReproduceTable2(seed uint64, runMS int) ([]Table2Row, error) {
	return legacyReproducer().Table2(seed, runMS)
}

// ReproduceTable3 regenerates Table 3.
//
// Deprecated: use Reproducer.Table3.
func ReproduceTable3(seed uint64) (Table3Result, error) {
	return legacyReproducer().Table3(seed)
}

// ReproduceFigure3 regenerates Fig. 3.
//
// Deprecated: use Reproducer.Figure3.
func ReproduceFigure3() Figure3Result { return legacyReproducer().Figure3() }

// ReproduceFigure6 regenerates Fig. 6.
//
// Deprecated: use Reproducer.Figure6.
func ReproduceFigure6(seed uint64) ThermalTraceResult { return legacyReproducer().Figure6(seed) }

// ReproduceFigure7 regenerates Fig. 7.
//
// Deprecated: use Reproducer.Figure7.
func ReproduceFigure7(seed uint64) ThermalTraceResult { return legacyReproducer().Figure7(seed) }

// ReproduceFigure8 regenerates the Fig. 8 sweep.
//
// Deprecated: use Reproducer.Figure8.
func ReproduceFigure8(seed uint64) ([]Figure8Point, error) { return legacyReproducer().Figure8(seed) }

// ReproduceFigure9 regenerates the Fig. 9 trace.
//
// Deprecated: use Reproducer.Figure9.
func ReproduceFigure9(seed uint64, durationMS int64) Figure9Result {
	return legacyReproducer().Figure9(seed, durationMS)
}

// ReproduceFigure10 regenerates the Fig. 10 sweep.
//
// Deprecated: use Reproducer.Figure10.
func ReproduceFigure10(seed uint64) ([]Figure10Point, error) {
	return legacyReproducer().Figure10(seed)
}

// ReproduceHotTaskSpeedup regenerates the §6.4 execution-time numbers.
//
// Deprecated: use Reproducer.HotTaskSpeedup.
func ReproduceHotTaskSpeedup(seed uint64, budgetW float64) HotTaskSpeedupResult {
	return legacyReproducer().HotTaskSpeedup(seed, budgetW)
}

// ReproduceMigrationCounts regenerates the §6.1 migration counts.
//
// Deprecated: use Reproducer.MigrationCounts.
func ReproduceMigrationCounts(seed uint64, durationMS int64) (MigrationCountsResult, error) {
	return legacyReproducer().MigrationCounts(seed, durationMS)
}

// ReproduceCMP runs the §7 chip-multiprocessor extension.
//
// Deprecated: use Reproducer.CMP.
func ReproduceCMP(seed uint64, durationMS int64) CMPResult {
	return legacyReproducer().CMP(seed, durationMS)
}

// ReproduceAblations runs the §4.3 balancer-metric ablation.
//
// Deprecated: use Reproducer.Ablations.
func ReproduceAblations(seed uint64, durationMS int64) []AblationResult {
	return legacyReproducer().Ablations(seed, durationMS)
}

// ReproducePolicyComparison quantifies §2.3.
//
// Deprecated: use Reproducer.PolicyComparison.
func ReproducePolicyComparison(seed uint64, measureMS int64) PolicyComparisonResult {
	return legacyReproducer().PolicyComparison(seed, measureMS)
}

// ReproduceUnitAware runs the §7 functional-unit extension experiment.
//
// Deprecated: use Reproducer.UnitAware.
func ReproduceUnitAware(seed uint64, measureMS int64) UnitAwareResult {
	return legacyReproducer().UnitAware(seed, measureMS)
}

// ReproduceDVFSComparison runs the DVFS-vs-throttling comparison.
//
// Deprecated: use Reproducer.DVFSComparison.
func ReproduceDVFSComparison(seed uint64) DVFSComparisonResult {
	return legacyReproducer().DVFSComparison(seed)
}
