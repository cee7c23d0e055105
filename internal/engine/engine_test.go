package engine

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"sort"
	"testing"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
)

// fakeEngine is a minimal Engine for registry tests. The name sorts
// after the real engines and it holds no capabilities, so its presence
// in the global registry cannot disturb any Supporting set.
type fakeEngine struct{ name string }

func (f fakeEngine) Name() string             { return f.name }
func (fakeEngine) Capabilities() CapSet       { return CapSet{} }
func (fakeEngine) RecoveryKind() RecoveryKind { return RecoverManualRerun }
func (f fakeEngine) RunNeuro(context.Context, *neuro.Workload, *cluster.Cluster, *cost.Model, Opts) (Result, error) {
	return Result{}, Unsupported("engine %s: fake", f.name)
}
func (f fakeEngine) RunAstro(context.Context, *astro.Workload, *cluster.Cluster, *cost.Model, Opts) (Result, error) {
	return Result{}, Unsupported("engine %s: fake", f.name)
}
func (fakeEngine) RunWithFaults(cl *cluster.Cluster, run func() error) (int, error) {
	return 0, run()
}

func TestRegisterDuplicatePanics(t *testing.T) {
	// Restore the registry afterwards so the test can run again in the
	// same process (go test -count=N).
	saved := maps.Clone(registry)
	t.Cleanup(func() { registry = saved })
	Register(fakeEngine{name: "zz-dup"})
	defer func() {
		if recover() == nil {
			t.Fatal("registering a duplicate engine name should panic")
		}
	}()
	Register(fakeEngine{name: "zz-dup"})
}

func TestLookupUnknownIsErrUnsupported(t *testing.T) {
	_, err := Lookup("Flink")
	if err == nil {
		t.Fatal("Lookup of an unregistered engine should fail")
	}
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Lookup error %v should wrap ErrUnsupported", err)
	}
}

func TestLookupFindsTheFiveSystems(t *testing.T) {
	for _, name := range []string{"Spark", "Myria", "Dask", "SciDB", "TensorFlow"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if e.Name() != name {
			t.Fatalf("Lookup(%s) returned engine named %s", name, e.Name())
		}
	}
}

func TestAllIsSortedByName(t *testing.T) {
	names := Names(All())
	if !sort.StringsAreSorted(names) {
		t.Fatalf("All() not sorted: %v", names)
	}
	if len(names) < 5 {
		t.Fatalf("All() = %v, want at least the five evaluated systems", names)
	}
}

// TestSupportingPaperOrder pins the comparison sets and their paper
// order — the row labels of the reproduced tables. Any change here is
// a change to every golden file that lists systems.
func TestSupportingPaperOrder(t *testing.T) {
	want := map[Cap][]string{
		CapNeuroE2E:       {"Dask", "Myria", "Spark"},
		CapAstroE2E:       {"Spark", "Myria"},
		CapNeuroIngest:    {"Myria", "Spark", "Dask", "TensorFlow", "SciDB"},
		CapNeuroStep:      {"Dask", "Myria", "Spark", "SciDB", "TensorFlow"},
		CapAstroCoadd:     {"Spark", "Myria", "SciDB"},
		CapFaultTolerance: {"Spark", "Myria", "Dask", "TensorFlow", "SciDB"},
		CapLoC:            {"Dask", "SciDB", "Spark", "Myria", "TensorFlow"},
	}
	for cap, wantNames := range want {
		if got := Names(Supporting(cap)); !reflect.DeepEqual(got, wantNames) {
			t.Errorf("Supporting(%s) = %v, want %v", cap, got, wantNames)
		}
	}
}

// TestCapabilityInterfaces verifies every capability claim is backed by
// the matching behavior interface, so a registry-driven experiment can
// assert the cast instead of crashing mid-table.
func TestCapabilityInterfaces(t *testing.T) {
	for _, e := range All() {
		caps := e.Capabilities()
		if _, ok := e.(NeuroIngester); caps.Has(CapNeuroIngest) && !ok {
			t.Errorf("%s claims %s but is no NeuroIngester", e.Name(), CapNeuroIngest)
		}
		if _, ok := e.(NeuroStepper); caps.Has(CapNeuroStep) && !ok {
			t.Errorf("%s claims %s but is no NeuroStepper", e.Name(), CapNeuroStep)
		}
		if _, ok := e.(AstroCoadder); caps.Has(CapAstroCoadd) && !ok {
			t.Errorf("%s claims %s but is no AstroCoadder", e.Name(), CapAstroCoadd)
		}
		if _, ok := e.(SourceFiler); caps.Has(CapLoC) && !ok {
			t.Errorf("%s claims %s but is no SourceFiler", e.Name(), CapLoC)
		}
	}
}

// TestRecoveryKinds pins each engine's recovery classification (the ft*
// experiments' qualitative axis) and the partial/total split that
// checkFT relies on.
func TestRecoveryKinds(t *testing.T) {
	want := map[string]RecoveryKind{
		"Spark":      RecoverLineage,
		"Dask":       RecoverResubmit,
		"TensorFlow": RecoverCheckpoint,
		"Myria":      RecoverRestart,
		"SciDB":      RecoverManualRerun,
	}
	for name, kind := range want {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.RecoveryKind(); got != kind {
			t.Errorf("%s recovery = %s, want %s", name, got, kind)
		}
	}
	for kind, partial := range map[RecoveryKind]bool{
		RecoverLineage:     true,
		RecoverResubmit:    true,
		RecoverCheckpoint:  false,
		RecoverRestart:     false,
		RecoverManualRerun: false,
	} {
		if kind.Partial() != partial {
			t.Errorf("%s.Partial() = %v, want %v", kind, kind.Partial(), partial)
		}
	}
}

// TestMemFloor pins the per-node memory floor of the end-to-end
// experiment clusters: 10× the input model bytes spread across nodes.
// The ft* and fig10 experiments both size clusters through this helper,
// so a drift here shifts every end-to-end golden file.
func TestMemFloor(t *testing.T) {
	cases := []struct {
		inputBytes int64
		nodes      int
		want       int64
	}{
		{inputBytes: 160 << 20, nodes: 4, want: 419430400},  // 10*160MiB/4 = 400 MiB
		{inputBytes: 160 << 20, nodes: 16, want: 104857600}, // 100 MiB
		{inputBytes: 7, nodes: 3, want: 23},                 // integer division, like the inlined original
	}
	for _, c := range cases {
		if got := MemFloor(c.inputBytes, c.nodes); got != c.want {
			t.Errorf("MemFloor(%d, %d) = %d, want %d", c.inputBytes, c.nodes, got, c.want)
		}
	}
}

func TestCapSetNames(t *testing.T) {
	s := CapSet{CapFaultTolerance: 1, CapNeuroE2E: 3}
	want := []string{"neuro-e2e", "fault-tolerance"} // declaration order, not rank order
	if got := s.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if s.Has(CapAstroE2E) {
		t.Fatal("Has(CapAstroE2E) on a set without it")
	}
}
