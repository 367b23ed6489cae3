package cliflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"energysched/internal/machine"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestEngineAlias pins the retired parallel engine's name as an input
// alias: -engine parallel selects the async engine.
func TestEngineAlias(t *testing.T) {
	fs := newFlagSet()
	e := Engine(fs)
	if *e != machine.EngineAsync {
		t.Fatalf("default engine = %v, want async", *e)
	}
	for name, want := range map[string]machine.Engine{
		"lockstep": machine.EngineLockstep,
		"batched":  machine.EngineBatched,
		"async":    machine.EngineAsync,
		"parallel": machine.EngineAsync,
	} {
		if err := fs.Set("engine", name); err != nil {
			t.Fatalf("-engine %s: %v", name, err)
		}
		if *e != want {
			t.Errorf("-engine %s = %v, want %v", name, *e, want)
		}
	}
	if err := fs.Set("engine", "turbo"); err == nil {
		t.Error("-engine turbo accepted")
	}
}

// TestEnginesDefault pins the -engines default: every engine once, in
// reference-first order.
func TestEnginesDefault(t *testing.T) {
	fs := newFlagSet()
	es := Engines(fs)
	want := []machine.Engine{machine.EngineLockstep, machine.EngineBatched, machine.EngineAsync}
	if !reflect.DeepEqual(*es, want) {
		t.Errorf("default engines = %v, want %v", *es, want)
	}
	if got := fs.Lookup("engines").DefValue; got != "lockstep,batched,async" {
		t.Errorf("-engines default shown as %q", got)
	}
}

// TestEnginesRejectsDuplicates: a list naming one engine twice — also
// through the parallel alias — is a parse error naming the duplicate,
// not a matrix that measures the same engine twice.
func TestEnginesRejectsDuplicates(t *testing.T) {
	for _, list := range []string{"async,parallel", "batched,async,batched", "parallel,async"} {
		fs := newFlagSet()
		es := Engines(fs)
		before := append([]machine.Engine(nil), *es...)
		err := fs.Parse([]string{"-engines", list})
		if err == nil {
			t.Errorf("-engines %s accepted as %v", list, *es)
			continue
		}
		parts := strings.Split(list, ",")
		if dup := parts[len(parts)-1]; !strings.Contains(err.Error(), `"`+dup+`"`) {
			t.Errorf("-engines %s: error %q does not name the duplicate %q", list, err, dup)
		}
		if !reflect.DeepEqual(*es, before) {
			t.Errorf("-engines %s: rejected list still applied: %v", list, *es)
		}
	}
	fs := newFlagSet()
	es := Engines(fs)
	if err := fs.Parse([]string{"-engines", "batched, parallel"}); err != nil {
		t.Fatal(err)
	}
	if want := []machine.Engine{machine.EngineBatched, machine.EngineAsync}; !reflect.DeepEqual(*es, want) {
		t.Errorf("-engines batched,parallel = %v, want %v", *es, want)
	}
}
