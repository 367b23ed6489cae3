package machine

import (
	"bytes"
	"encoding/gob"
	"slices"
	"strings"
	"testing"

	"energysched/internal/rng"
	"energysched/internal/trace"
)

// TestCheckpointRoundTrip checkpoints every equivalence scenario on
// all three engines, restores, and asserts the restored machine is
// indistinguishable from the original continuing uninterrupted:
// byte-identical event traces over the remainder, a tol-0 snapshot diff
// at the end, and byte-identical final checkpoints. Each pair splits at
// up to three instants: a pseudo-random mid-run one, and the ends of
// the first quantum in which a task blocked or finished and of the
// first in which the balancer or hot-task check migrated one — there a
// CPU's queue may just have emptied, the state in which its execution
// speed must already be zero. The retired "parallel" name, an alias of
// async, runs too, with its own random split point: a machine built
// from that name must checkpoint and restore like any other.
func TestCheckpointRoundTrip(t *testing.T) {
	engines := []struct {
		name  string // as ParseEngine reads it
		split uint64 // seeds the split point
	}{
		{"batched", uint64(EngineBatched)},
		{"lockstep", uint64(EngineLockstep)},
		{"async", uint64(EngineAsync)},
		{"parallel", 3}, // the retired engine's value
	}
	for si, sc := range engineScenarios() {
		for _, v := range engines {
			sc, si, v := sc, si, v
			t.Run(sc.name+"/"+v.name, func(t *testing.T) {
				e, err := ParseEngine(v.name)
				if err != nil {
					t.Fatal(err)
				}
				t.Run("random", func(t *testing.T) {
					// Deterministic per-(scenario, engine) split point
					// in [1, runMS-1].
					r := rng.New(uint64(si)<<8 | v.split + 0xc0ffee)
					checkpointRoundTrip(t, sc, e, 1+int64(r.Uint64()%uint64(sc.runMS-1)))
				})
				if v.name == "parallel" {
					return // same async machine and instant as /async
				}
				t.Run("first-block", func(t *testing.T) {
					k, ok := firstEventSplit(sc, e, trace.Block, trace.Finish)
					if !ok {
						t.Skip("no task blocks or finishes before the run's last tick")
					}
					checkpointRoundTrip(t, sc, e, k)
				})
				t.Run("first-migrate", func(t *testing.T) {
					k, ok := firstEventSplit(sc, e, trace.Migrate)
					if !ok {
						t.Skip("no task migrates before the run's last tick")
					}
					checkpointRoundTrip(t, sc, e, k)
				})
			})
		}
	}
}

// firstEventSplit returns the instant just past the first quantum with
// a trace event of one of the given kinds (blocks, finishes and
// migrations stamp the quantum's last tick), if it falls inside the
// scenario's run.
func firstEventSplit(sc engineScenario, e Engine, kinds ...trace.Kind) (int64, bool) {
	m := sc.build(e)
	rec := trace.New(0)
	m.Cfg.Trace = rec
	for m.NowMS() < sc.runMS-1 {
		m.Run(min(1000, sc.runMS-1-m.NowMS()))
		for _, ev := range rec.Events() {
			if slices.Contains(kinds, ev.Kind) {
				return ev.TimeMS + 1, ev.TimeMS+1 < sc.runMS
			}
		}
		rec.Reset()
	}
	return 0, false
}

// checkpointRoundTrip runs the scenario for k ms, checkpoints, restores,
// and compares the restored machine with the original over the rest of
// the run.
func checkpointRoundTrip(t *testing.T, sc engineScenario, e Engine, k int64) {
	t.Helper()
	rest := sc.runMS - k
	m := sc.build(e)
	m.Run(k)
	data, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint at %d ms: %v", k, err)
	}
	// Identical state must encode to identical bytes (the farm's image
	// cache keys on content).
	data2, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("repeated checkpoint of an unchanged machine differs (%d vs %d bytes)", len(data), len(data2))
	}

	recB := trace.New(0)
	m2, err := Restore(data, recB)
	if err != nil {
		t.Fatalf("restore at %d ms: %v", k, err)
	}
	if err := m2.CheckInvariants(); err != nil {
		t.Fatalf("machine restored at %d ms violates invariants: %v", k, err)
	}

	recA := trace.New(0)
	m.Cfg.Trace = recA
	m.Run(rest)
	m2.Run(rest)

	a, b := traceCSV(t, recA), traceCSV(t, recB)
	if a != b {
		t.Errorf("split at %d ms: post-restore trace differs (%d vs %d bytes): %s",
			k, len(a), len(b), firstTraceDiff(a, b))
	}
	if diffs := DiffSnapshots(m.Snapshot(), m2.Snapshot(), 0); len(diffs) > 0 {
		t.Errorf("split at %d ms: snapshot diverged after restore: %v", k, diffs)
	}
	ca, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := m2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("split at %d ms: final checkpoints differ (%d vs %d bytes)", k, len(ca), len(cb))
	}
}

// TestBranchDivergence asserts the fan-out contract: branches of one
// machine are bit-exact copies until reseeded, same-seed branches stay
// bit-exact, and different seeds actually diverge.
func TestBranchDivergence(t *testing.T) {
	scs := engineScenarios()
	sc := scs[1] // steady-state: always-busy stochastic workload
	m := sc.build(EngineAsync)
	m.Run(5000)

	runAndSnap := func(b *Machine) []byte {
		b.Run(5000)
		data, err := b.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	b1, err := m.Branch(nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m.Branch(nil)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := m.Branch(nil)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := m.Branch(nil)
	if err != nil {
		t.Fatal(err)
	}
	b1.Reseed(7)
	b2.Reseed(7)
	b3.Reseed(8)

	d1, d2, d3, d4 := runAndSnap(b1), runAndSnap(b2), runAndSnap(b3), runAndSnap(b4)
	if !bytes.Equal(d1, d2) {
		t.Error("same-seed branches diverged")
	}
	if bytes.Equal(d1, d3) {
		t.Error("different-seed branches did not diverge")
	}
	if bytes.Equal(d1, d4) {
		t.Error("reseeded branch did not diverge from the unseeded one")
	}

	// The parent was only read: it must continue exactly like an
	// untouched branch of itself.
	dm := runAndSnap(m)
	if !bytes.Equal(dm, d4) {
		t.Error("parent diverged from its own un-reseeded branch")
	}
}

// TestRestoreRejectsRetiredEngine: an image whose Cfg.Engine is 3, the
// value the retired parallel engine had, must fail Restore with an
// error — never panic, never run on some other engine.
func TestRestoreRejectsRetiredEngine(t *testing.T) {
	m := engineScenarios()[1].build(EngineAsync)
	m.Run(2000)
	st := m.captureState()
	st.Cfg.Engine = 3
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Restore panicked: %v", r)
		}
	}()
	got, err := Restore(buf.Bytes(), nil)
	if err == nil {
		t.Fatalf("Restore accepted engine 3, running %v", got.Cfg.Engine)
	}
	if !strings.Contains(err.Error(), "unknown engine 3") {
		t.Errorf("Restore error %q does not name the engine", err)
	}
}

// TestRestoreZeroesIdleSpeed: an image that holds a non-zero execution
// speed on an idle CPU — what a CPU whose queue emptied in its last
// quantum carried before the step zeroed it — restores to a machine
// whose idle CPUs run at speed 0, and continues exactly like the
// original. The busy-set phases never visit an idle CPU, so a stale
// speed there would reach the execution sweep, which reads the CPU's
// (absent) task.
func TestRestoreZeroesIdleSpeed(t *testing.T) {
	for _, e := range []Engine{EngineBatched, EngineAsync} {
		m := engineScenarios()[0].build(e) // idle-heavy: mostly idle CPUs
		m.Run(5000)
		st := m.captureState()
		stale := -1
		for c, rq := range m.Sched.RQs {
			if rq.Idle() {
				stale = c
				break
			}
		}
		if stale < 0 {
			t.Fatalf("%v: no idle CPU at 5000 ms", e)
		}
		st.ExecSpeed[stale] = 1
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		recB := trace.New(0)
		m2, err := Restore(buf.Bytes(), recB)
		if err != nil {
			t.Fatalf("%v: restore: %v", e, err)
		}
		if err := m2.CheckInvariants(); err != nil {
			t.Fatalf("%v: restored machine violates invariants: %v", e, err)
		}
		recA := trace.New(0)
		m.Cfg.Trace = recA
		m.Run(5000)
		m2.Run(5000)
		if a, b := traceCSV(t, recA), traceCSV(t, recB); a != b {
			t.Errorf("%v: post-restore trace differs: %s", e, firstTraceDiff(a, b))
		}
	}
}
