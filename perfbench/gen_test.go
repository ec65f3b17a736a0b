package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/solstore"
)

func TestPlanRoundDeterministicAndBalanced(t *testing.T) {
	a, b := planRound(7), planRound(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different rounds")
	}
	if reflect.DeepEqual(a, planRound(8)) {
		t.Error("seeds 7 and 8 gave the same round")
	}
	// Every program meets both scenarios once cold and once warm, so the
	// round's work and plan quality do not depend on the seed.
	seen := map[planOp]int{}
	for _, op := range a {
		seen[op]++
	}
	for _, bm := range bench.All() {
		for _, warm := range []bool{false, true} {
			for _, sc := range []platform.Scenario{platform.ScenarioAccelerator, platform.ScenarioSlowerCores} {
				pf := planPlatform[bm.Name]
				if pf == "" {
					pf = "B"
				}
				op := planOp{Prog: planProgram{Name: bm.Name, Platform: pf}, Scenario: sc, Warm: warm}
				if seen[op] != 1 {
					t.Errorf("%s warm=%v appears %d times", op.input(), warm, seen[op])
				}
			}
		}
	}
	for i := 0; i < len(a); i += 2 {
		if a[i].Warm || !a[i+1].Warm || a[i].Prog != a[i+1].Prog || a[i].Scenario == a[i+1].Scenario {
			t.Fatalf("ops %d,%d are not a cold plan followed by its warm twin: %+v %+v", i, i+1, a[i], a[i+1])
		}
	}
}

func TestDSEPlatformsDeterministic(t *testing.T) {
	a, b := dsePlatforms(3, 30), dsePlatforms(3, 30)
	ids := map[string]bool{}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("equal seeds differ at %d: %s vs %s", i, a[i].ID, b[i].ID)
		}
		if ids[a[i].ID] {
			t.Errorf("platform %s drawn twice", a[i].ID)
		}
		ids[a[i].ID] = true
		if n := len(a[i].Platform.Classes); n != 3 || a[i].Scenario != platform.ScenarioAccelerator {
			t.Errorf("%s: %d classes, scenario %v", a[i].ID, n, a[i].Scenario)
		}
		if got, want := a[i].Platform.NumCores(), dseTotals[i%len(dseTotals)]; got != want {
			t.Errorf("step %d (%s): %d cores, want %d", i, a[i].ID, got, want)
		}
		if twin := slowTwin(a[i]); twin.Scenario != platform.ScenarioSlowerCores || twin.Platform != a[i].Platform {
			t.Errorf("bad twin of %s: %+v", a[i].ID, twin)
		}
	}
	if c := dsePlatforms(4, 30); c[0].ID == a[0].ID && c[1].ID == a[1].ID {
		t.Error("seeds 3 and 4 drew the same platforms")
	}
}

func TestEditSourcesAreDistinct(t *testing.T) {
	src := bench.ByName("mult_10").Source
	lits, err := floatLiterals(src)
	if err != nil || len(lits) == 0 {
		t.Fatalf("float literals: %v %v", lits, err)
	}
	seen := map[string]bool{}
	for k := 1; k <= 50; k++ {
		e := editSource(src, lits[0], k)
		if seen[e] || e == src {
			t.Fatalf("edit %d repeats an earlier source", k)
		}
		seen[e] = true
	}
}

// TestEditsPreserveRegionKeys plans each serve base on a store, then an
// edit of every editable literal on the same store: the edit must find
// every region solve there.
func TestEditsPreserveRegionKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("plans three programs")
	}
	for _, name := range serveBases {
		src := bench.ByName(name).Source
		lits, err := safeLiterals(name, src)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		st := solstore.New(solstore.Options{Metrics: reg})
		plan := func(s string) work {
			p, err := experiments.Prepare(&bench.Benchmark{Name: name, Source: s})
			if err != nil {
				t.Fatal(err)
			}
			pf := platformByName("B")
			before := snapshot(reg, st)
			if _, err := core.Parallelize(p.Graph, pf, platform.ScenarioAccelerator.MainClass(pf), core.Heterogeneous,
				core.Config{ILPTimeout: noClock, Store: st, Metrics: reg}); err != nil {
				t.Fatal(err)
			}
			return snapshot(reg, st).minus(before)
		}
		if w := plan(src); w.Solves == 0 {
			t.Fatalf("%s: base plan solved nothing", name)
		}
		for i, lit := range lits {
			if w := plan(editSource(src, lit, 1000+i)); w.Solves != 0 || w.StoreMisses != 0 {
				t.Errorf("%s literal %d: edit solved %d ILPs, missed the store %d times", name, i, w.Solves, w.StoreMisses)
			}
		}
	}
}

func TestLedgerComparesCommonPrefix(t *testing.T) {
	a := []ledgerEntry{{Op: 0, Kind: "cold", Input: "x", Counters: map[string]int64{"ilp.solves": 3}}}
	b := append(append([]ledgerEntry(nil), a...), ledgerEntry{Op: 1, Kind: "warm", Input: "x", Counters: map[string]int64{}})
	if err := compareLedgers(a, b); err != nil {
		t.Errorf("a prefix was reported as different: %v", err)
	}
	c := []ledgerEntry{{Op: 0, Kind: "cold", Input: "x", Counters: map[string]int64{"ilp.solves": 4}}}
	if compareLedgers(a, c) == nil {
		t.Error("different counters were not reported")
	}
	dir := t.TempDir()
	r := &run{workload: "plan_cold", seed: 5, ledger: b}
	if err := r.checkLedger(dir, "code1"); err != nil {
		t.Fatal(err)
	}
	r.ledger = c
	if r.checkLedger(dir, "code1") == nil {
		t.Error("a second run of the same code with other counters passed the ledger check")
	}
	if err := r.checkLedger(dir, "code2"); err != nil {
		t.Errorf("changed code was held to its parent's ledger: %v", err)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if want[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the benchmark", kind, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
