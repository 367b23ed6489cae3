package sched

import (
	"reflect"
	"testing"

	"energysched/internal/profile"
	"energysched/internal/topology"
)

// hotBoundLayout is a 3-level, SMT-less layout: two nodes of two
// dual-core packages, so HotCheck scans the mc, node, and top levels.
func hotBoundLayout() topology.Layout {
	return topology.Layout{Nodes: 2, PackagesPerNode: 2, CoresPerPackage: 2, ThreadsPerPackage: 1}
}

// hotBoundCase is one HotCheck setup on hotBoundLayout: CPU src runs
// the single hot task; every CPU's (= core's, no SMT) thermal power is
// tp.
type hotBoundCase struct {
	src    int
	gapW   float64   // HotDestGapW
	tp     []float64 // per-CPU thermal power
	watts  []float64 // per-CPU running task's profile; 0 = idle (src ignored)
	queued []bool    // per-CPU extra waiting task (src ignored)
}

// hotBoundOutcome is what one HotCheck did.
type hotBoundOutcome struct {
	moved   bool
	where   []topology.CPUID // every task's CPU afterwards, in creation order
	reasons [4]int64
	pruned  int64
}

// runHotBound builds the case on a scheduler with the deadline
// scheduler attached and runs HotCheck(src), inside a deadline epoch (the
// lower bound active) or outside one (the plain per-level scan).
func runHotBound(hc hotBoundCase, epoch bool) hotBoundOutcome {
	cfg := DefaultConfig()
	cfg.HotDestGapW = hc.gapW
	s := New(topology.MustNew(hotBoundLayout()), cfg, profile.NewPlacementTable(45))
	for i := range s.Power {
		s.Power[i] = profile.NewCPUPower(40, 0.001, 1, hc.tp[i])
	}
	w := NewWheel(cfg)
	s.AttachDeadlines(w)
	var tasks []*Task
	for c := range hc.tp {
		watts := hc.watts[c]
		if c == hc.src {
			watts = 61
		}
		if watts == 0 {
			continue
		}
		t := mkTask(len(tasks)+1, watts)
		s.RQ(topology.CPUID(c)).Enqueue(t)
		s.RQ(topology.CPUID(c)).PickNext()
		tasks = append(tasks, t)
		if c != hc.src && hc.queued[c] {
			q := mkTask(len(tasks)+1, 30)
			s.RQ(topology.CPUID(c)).Enqueue(q)
			tasks = append(tasks, q)
		}
	}
	if epoch {
		s.BeginDeadlineEpoch()
	}
	var out hotBoundOutcome
	out.moved = s.HotCheck(topology.CPUID(hc.src))
	if epoch {
		s.EndDeadlineEpoch()
	}
	for _, t := range tasks {
		out.where = append(out.where, t.CPU)
	}
	out.reasons = s.MigrationsByReason
	out.pruned = w.Stats.HotPruned
	return out
}

// checkHotBound asserts that the bounded check decides exactly as the
// plain scan, and that the bound only ever ends checks the scan would
// also have ended without a move. It returns the bounded outcome.
func checkHotBound(t *testing.T, name string, hc hotBoundCase) hotBoundOutcome {
	t.Helper()
	ref := runHotBound(hc, false)
	got := runHotBound(hc, true)
	if ref.pruned != 0 {
		t.Fatalf("%s: bound fired outside a deadline epoch", name)
	}
	if got.moved != ref.moved || !reflect.DeepEqual(got.where, ref.where) || got.reasons != ref.reasons {
		t.Fatalf("%s: bounded check diverged from the scan:\n  scan  %+v\n  bound %+v\n  tp %v", name, ref, got, hc.tp)
	}
	if got.pruned > 0 && ref.moved {
		t.Fatalf("%s: bound pruned a check the scan acted on", name)
	}
	return got
}

// newHotBoundCase returns a case with every other CPU idle at the
// given thermal power, the source CPU at my, and the default gap.
func newHotBoundCase(src int, my, others float64) hotBoundCase {
	n := hotBoundLayout().NumLogical()
	hc := hotBoundCase{src: src, gapW: DefaultConfig().HotDestGapW,
		tp: make([]float64, n), watts: make([]float64, n), queued: make([]bool, n)}
	for c := range hc.tp {
		hc.tp[c] = others
	}
	hc.tp[src] = my
	return hc
}

// The hot-check lower bound must decide exactly as the level-by-level
// coolest-core scan it short-circuits — on randomized core sums,
// occupancies, source CPUs, and gaps, and on the three edges of the
// bound: the coolest other core exactly at myCoreTP − HotDestGapW, a
// coolTieRel near-tie, and the caller's own core holding the raw
// minimum.
func TestHotCheckBoundMatchesScan(t *testing.T) {
	if got := len(topology.MustNew(hotBoundLayout()).DomainsFor(0)); got != 3 {
		t.Fatalf("layout has %d domain levels, want 3", got)
	}
	gap := DefaultConfig().HotDestGapW

	// Edge 1: the only cool core (another node, idle) sits exactly at
	// the threshold. "Considerably cooler" is inclusive there, so the
	// bound must not prune and the task moves.
	hc := newHotBoundCase(0, 39.5, 41)
	hc.tp[5] = 39.5 - gap
	if out := checkHotBound(t, "exact threshold", hc); !out.moved || out.where[0] != 5 || out.pruned != 0 {
		t.Fatalf("exact threshold: %+v, want a move to CPU 5 without pruning", out)
	}
	// One ulp-scale step above the threshold: every level ascends.
	hc.tp[5] = (39.5 - gap) * (1 + 1e-12)
	if out := checkHotBound(t, "above threshold", hc); out.moved || out.pruned != 1 {
		t.Fatalf("above threshold: %+v, want a pruned check", out)
	}

	// Edge 2: coolTieRel near-ties. On the node level, CPU 3 is the raw
	// minimum but within the tie margin of CPU 2, which the scan order
	// picks; the bound (far below the threshold) must fall through to
	// that pick.
	hc = newHotBoundCase(0, 39.5, 41)
	hc.tp[2] = 20
	hc.tp[3] = 20 * (1 - coolTieRel/4)
	if out := checkHotBound(t, "near-tie", hc); !out.moved || out.where[0] != 2 {
		t.Fatalf("near-tie: %+v, want the scan-order pick CPU 2", out)
	}
	// A tie straddling the threshold, seen from node 1: the top level's
	// tie-broken pick (CPU 0, first in scan order) is just above the
	// threshold, but CPU 6, within margin of it and just below, is the
	// node level's pick. A bound taken from the tie-margin ranking would
	// prune here; the raw minimum must not.
	hc = newHotBoundCase(4, 39.5, 41)
	hc.tp[0] = (39.5 - gap) * (1 + coolTieRel*0.4)
	hc.tp[6] = (39.5 - gap) * (1 - coolTieRel*0.4)
	if out := checkHotBound(t, "near-tie at threshold", hc); !out.moved || out.where[0] != 6 || out.pruned != 0 {
		t.Fatalf("near-tie at threshold: %+v, want a move to CPU 6 without pruning", out)
	}

	// Edge 3: the caller's own core is the raw minimum (every other
	// core is hotter still), so the bound is the runner-up. With a zero
	// gap the own sum alone would never prune.
	for _, g := range []float64{gap, 0} {
		hc = newHotBoundCase(0, 39.2, 45)
		hc.gapW = g
		hc.tp[6] = 39.3
		if out := checkHotBound(t, "own core minimum", hc); out.moved || out.pruned != 1 {
			t.Fatalf("own core minimum, gap %v: %+v, want a pruned check", g, out)
		}
	}
	// And with the runner-up cool enough, the check must go on.
	hc = newHotBoundCase(0, 39.2, 45)
	hc.tp[6] = 39.2 - gap - 1
	if out := checkHotBound(t, "own core minimum, cool runner-up", hc); !out.moved || out.where[0] != 6 {
		t.Fatalf("own core minimum, cool runner-up: %+v, want a move to CPU 6", out)
	}

	// Randomized sums straddling the threshold, random occupancy (idle,
	// a single task cool or hot enough to exchange, or a queue).
	rnd := newTestRand(13)
	unit := func() float64 { return float64(rnd()>>11) / (1 << 53) }
	n := hotBoundLayout().NumLogical()
	const cases = 4000
	var pruned, moved int
	for i := 0; i < cases; i++ {
		my := 39 + 6*unit()
		hc := newHotBoundCase(int(rnd()%uint64(n)), my, 0)
		if i%4 == 0 {
			hc.gapW = 0
		}
		for c := range hc.tp {
			if c == hc.src {
				continue
			}
			if unit() < 0.75 {
				hc.tp[c] = my - hc.gapW - 0.5 + (hc.gapW+3)*unit()
			} else {
				hc.tp[c] = my - hc.gapW - 6 + 6.5*unit()
			}
			if unit() < 0.7 {
				hc.watts[c] = 20 + 50*unit()
				hc.queued[c] = unit() < 0.2
			}
		}
		out := checkHotBound(t, "random", hc)
		pruned += int(out.pruned)
		if out.moved {
			moved++
		}
	}
	if pruned == 0 || moved == 0 || pruned+moved == cases {
		t.Fatalf("random cases: %d pruned, %d moved of %d; want all three outcomes", pruned, moved, cases)
	}
}
