package energysched_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"testing"

	"energysched"
	"energysched/internal/cliflags"
	"energysched/internal/experiments"
	"energysched/internal/farm"
	"energysched/internal/machine"
	"energysched/internal/scenario"
	"energysched/internal/sched"
	"energysched/internal/topology"
)

// TestDefaultEngine pins the engine each entry point runs when none is
// named: async everywhere, except the farm wire protocol, where a
// request without an engine has always meant batched and its response
// header says so.
func TestDefaultEngine(t *testing.T) {
	bareConfig := func(e machine.Engine) machine.Config {
		return machine.Config{Layout: topology.XSeries445NoSMT(), Sched: sched.DefaultConfig(), Engine: e}
	}
	engineOf := func(t *testing.T, m *machine.Machine, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m.Cfg.Engine.String()
	}
	restored := func(t *testing.T, img []byte, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.Restore(img, nil)
		return engineOf(t, m, err)
	}
	spec := scenario.MustNamed("engines/steady-state")

	cases := []struct {
		name   string
		engine func(t *testing.T) string
		want   string
	}{
		{"cliflags.Engine", func(t *testing.T) string {
			e := cliflags.Engine(flag.NewFlagSet("default", flag.ContinueOnError))
			m, err := machine.New(bareConfig(*e))
			return engineOf(t, m, err)
		}, "async"},
		{"machine.Config{}", func(t *testing.T) string {
			var zero machine.Engine
			m, err := machine.New(bareConfig(zero))
			return engineOf(t, m, err)
		}, "async"},
		{"experiments.RunConfig{}", func(t *testing.T) string {
			img, err := experiments.RunConfig{}.WarmImage(spec, 10)
			return restored(t, img, err)
		}, "async"},
		{"energysched.Options{}", func(t *testing.T) string {
			sys, err := energysched.New(energysched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			img, err := sys.Checkpoint()
			return restored(t, img, err)
		}, "async"},
		{"farm.SweepRequest wire default", func(t *testing.T) string {
			req := farm.SweepRequest{Name: spec.Name, WarmupMS: 10, MeasureMS: 10, Seeds: []uint64{1}}
			var out bytes.Buffer
			if err := farm.NewServer(experiments.RunConfig{}, 0, nil).Direct(&out, req); err != nil {
				t.Fatal(err)
			}
			header, _, _ := bytes.Cut(out.Bytes(), []byte("\n"))
			var h farm.Header
			if err := json.Unmarshal(header, &h); err != nil {
				t.Fatalf("header %q: %v", header, err)
			}
			return h.Engine
		}, "batched"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.engine(t); got != c.want {
				t.Errorf("engine = %s, want %s", got, c.want)
			}
		})
	}
}
