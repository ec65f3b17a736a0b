package heteropar_test

import (
	"strings"
	"testing"

	heteropar "repro"
)

const demoSrc = `
#define N 256
float a[N]; float b[N]; float total;
void main(void) {
    for (int i = 0; i < N; i++) {
        a[i] = sqrt(i * 1.0 + 1.0) * 2.0;
    }
    for (int j = 0; j < N; j++) {
        b[j] = a[j] * a[j] + 1.0;
    }
    total = 0.0;
    for (int k = 0; k < N; k++) {
        total += b[k];
    }
}
`

func TestParallelizeEndToEnd(t *testing.T) {
	rep, err := heteropar.Parallelize(demoSrc, heteropar.Options{
		Platform: heteropar.PlatformA(),
		Scenario: heteropar.Accelerator,
	})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	if rep.MeasuredSpeedup <= 1 {
		t.Errorf("measured speedup %.2f should exceed 1", rep.MeasuredSpeedup)
	}
	if rep.MeasuredSpeedup > rep.TheoreticalLimit() {
		t.Errorf("speedup %.2f above the theoretical limit %.2f", rep.MeasuredSpeedup, rep.TheoreticalLimit())
	}
	if rep.EstimatedSpeedup <= 1 {
		t.Errorf("estimated speedup %.2f should exceed 1", rep.EstimatedSpeedup)
	}
	if rep.NumTasks() < 1 {
		t.Errorf("spec should have tasks")
	}
	annotated := rep.AnnotatedSource()
	if !strings.Contains(annotated, "void main(void)") {
		t.Errorf("annotated source lost the program:\n%s", annotated)
	}
	spec := rep.ParallelSpec()
	if !strings.Contains(spec, "task 0") {
		t.Errorf("spec missing tasks:\n%s", spec)
	}
	if rep.PlanSummary() == "" {
		t.Errorf("plan summary empty")
	}
}

func TestParallelizeWithStoreAndWorkers(t *testing.T) {
	store := heteropar.NewSolutionStore(1024)
	opts := heteropar.Options{
		Platform: heteropar.PlatformA(),
		Scenario: heteropar.Accelerator,
		Store:    store,
	}
	rep, err := heteropar.Parallelize(demoSrc, opts)
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	st := store.Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("store not consulted: %+v", st)
	}
	// A second run over the warm store re-solves nothing and returns
	// the same plan.
	rep2, err := heteropar.Parallelize(demoSrc, opts)
	if err != nil {
		t.Fatalf("warm Parallelize: %v", err)
	}
	st2 := store.Stats()
	if st2.Misses != st.Misses {
		t.Errorf("warm run re-solved %d regions; want 0", st2.Misses-st.Misses)
	}
	if st2.Hits <= st.Hits {
		t.Errorf("warm run recorded no store hits")
	}
	if rep.PlanSummary() != rep2.PlanSummary() {
		t.Errorf("warm plan differs from cold plan")
	}
}

func TestParallelizeHomogeneousBaseline(t *testing.T) {
	rep, err := heteropar.Parallelize(demoSrc, heteropar.Options{
		Platform: heteropar.PlatformB(),
		Scenario: heteropar.SlowerCores,
		Approach: heteropar.Homogeneous,
	})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	// The homogeneous baseline on the slower-cores scenario is allowed to
	// lose to sequential (that is the paper's point), but it must produce
	// a valid report.
	if rep.MeasuredMakespanNs <= 0 {
		t.Errorf("no makespan measured")
	}
}

func TestParallelizeSkipSimulation(t *testing.T) {
	rep, err := heteropar.Parallelize(demoSrc, heteropar.Options{SkipSimulation: true})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	if rep.MeasuredSpeedup != 0 || rep.MeasuredMakespanNs != 0 {
		t.Errorf("simulation fields should stay zero when skipped")
	}
	if rep.EstimatedSpeedup <= 0 {
		t.Errorf("estimate missing")
	}
}

func TestParallelizeErrors(t *testing.T) {
	if _, err := heteropar.Parallelize("int x = ;", heteropar.Options{}); err == nil {
		t.Errorf("syntax error not reported")
	}
	if _, err := heteropar.Parallelize("int f(void) { return 1; }", heteropar.Options{}); err == nil {
		t.Errorf("missing main not reported")
	}
	if _, err := heteropar.Parallelize(
		"void main(void) { int x = 1 / 0; }", heteropar.Options{}); err == nil {
		t.Errorf("runtime error during profiling not reported")
	}
	bad := heteropar.NewPlatform("bad")
	if _, err := heteropar.Parallelize(demoSrc, heteropar.Options{Platform: bad}); err == nil {
		t.Errorf("invalid platform not reported")
	}
}

func TestCustomPlatform(t *testing.T) {
	pf := heteropar.NewPlatform("tri",
		heteropar.ProcClass{Name: "slow", MHz: 100, Count: 1, CPIFactor: 1},
		heteropar.ProcClass{Name: "fast", MHz: 400, Count: 2, CPIFactor: 1},
	)
	rep, err := heteropar.Parallelize(demoSrc, heteropar.Options{Platform: pf})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	if rep.TheoreticalLimit() != 9 { // (100 + 2*400)/100
		t.Errorf("limit = %g, want 9", rep.TheoreticalLimit())
	}
}

func TestGanttAndEnergyReporting(t *testing.T) {
	rep, err := heteropar.Parallelize(demoSrc, heteropar.Options{})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	g := rep.Gantt(80)
	if !strings.Contains(g, "core0") || !strings.Contains(g, "legend:") {
		t.Errorf("gantt missing rows/legend:\n%s", g)
	}
	if rep.MeasuredEnergyUJ <= 0 || rep.SequentialEnergyUJ <= 0 {
		t.Errorf("energy not reported: par=%g seq=%g", rep.MeasuredEnergyUJ, rep.SequentialEnergyUJ)
	}
	if rep.Measured == nil || len(rep.Measured.Trace) == 0 {
		t.Errorf("trace missing")
	}
	// Skipping the simulation yields an empty gantt.
	rep2, err := heteropar.Parallelize(demoSrc, heteropar.Options{SkipSimulation: true})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	if rep2.Gantt(80) != "" {
		t.Errorf("gantt should be empty without simulation")
	}
}

func TestGenerateGoFromReport(t *testing.T) {
	rep, err := heteropar.Parallelize(demoSrc, heteropar.Options{SkipSimulation: true})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	par, err := rep.GenerateGo()
	if err != nil {
		t.Fatalf("GenerateGo: %v", err)
	}
	seq, err := rep.GenerateSequentialGo()
	if err != nil {
		t.Fatalf("GenerateSequentialGo: %v", err)
	}
	for _, src := range []string{par, seq} {
		if !strings.Contains(src, "package main") || !strings.Contains(src, "checksum") {
			t.Errorf("generated source malformed")
		}
	}
	if !strings.Contains(par, "sync") {
		t.Errorf("parallel source should use sync")
	}
}
