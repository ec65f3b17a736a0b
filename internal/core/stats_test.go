package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/htg"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/solstore"
)

const statsSrc = `
#define N 128
float a[N]; float b[N]; float c[N];
void main(void) {
    for (int i = 0; i < N; i++) { a[i] = sqrt(i * 1.0 + 1.0); }
    for (int j = 0; j < N; j++) { b[j] = a[j] * 2.0 + 1.0; }
    for (int k = 0; k < N; k++) { c[k] = a[k] + b[k]; }
}
`

func statsGraph(t *testing.T) *htg.Graph {
	t.Helper()
	prog, err := minic.Compile(statsSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prof, err := interp.New(prog).Run()
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	g, err := htg.Build(prog, prof, htg.Config{})
	if err != nil {
		t.Fatalf("htg: %v", err)
	}
	return g
}

// TestSolveRecordsPopulated checks that every ILP solve leaves a
// per-region record whose aggregates match the Table I totals.
func TestSolveRecordsPopulated(t *testing.T) {
	g := statsGraph(t)
	pf := platform.ConfigA()
	res, err := Parallelize(g, pf, 0, Heterogeneous, Config{})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	st := res.Stats
	if st.NumILPs == 0 {
		t.Fatalf("no ILPs solved")
	}
	if len(st.Solves) != st.NumILPs {
		t.Fatalf("Solves has %d records, NumILPs = %d", len(st.Solves), st.NumILPs)
	}
	var nodes, lpIters, vars, cons, inc int
	for _, rec := range st.Solves {
		if rec.Region == "" || rec.Model == "" || rec.Status == "" {
			t.Errorf("incomplete record: %+v", rec)
		}
		if rec.MaxTasks < 2 {
			t.Errorf("record with task bound %d (< 2 never reaches the solver)", rec.MaxTasks)
		}
		nodes += rec.Nodes
		lpIters += rec.LPIters
		vars += rec.Vars
		cons += rec.Cons
		inc += rec.Incumbents
	}
	if nodes != st.BBNodes || lpIters != st.LPIters || vars != st.NumVars ||
		cons != st.NumConstraints || inc != st.Incumbents {
		t.Errorf("aggregates disagree with records: nodes %d/%d lp %d/%d vars %d/%d cons %d/%d inc %d/%d",
			nodes, st.BBNodes, lpIters, st.LPIters, vars, st.NumVars,
			cons, st.NumConstraints, inc, st.Incumbents)
	}
	table := st.SolveTable()
	for _, want := range []string{"region", "model", "lp-iters", "total:"} {
		if !strings.Contains(table, want) {
			t.Errorf("SolveTable missing %q:\n%s", want, table)
		}
	}
}

// TestObsWiredThroughSolves checks that a configured tracer/registry
// sees one span per ILP solve and solver telemetry consistent with the
// solve records.
func TestObsWiredThroughSolves(t *testing.T) {
	g := statsGraph(t)
	pf := platform.ConfigA()
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	res, err := Parallelize(g, pf, 0, Heterogeneous, Config{Tracer: tr, Metrics: reg})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	if got := tr.NumSpans(); got != res.Stats.NumILPs {
		t.Errorf("spans = %d, want one per ILP (%d)", got, res.Stats.NumILPs)
	}
	if got := reg.Counter("ilp.solves").Value(); got != int64(res.Stats.NumILPs) {
		t.Errorf("ilp.solves counter = %d, want %d", got, res.Stats.NumILPs)
	}
	if got := reg.Counter("ilp.bb_nodes").Value(); got != int64(res.Stats.BBNodes) {
		t.Errorf("ilp.bb_nodes counter = %d, want %d", got, res.Stats.BBNodes)
	}
	if got := reg.Counter("ilp.lp_iters").Value(); got != int64(res.Stats.LPIters) {
		t.Errorf("ilp.lp_iters counter = %d, want %d", got, res.Stats.LPIters)
	}
	if got := reg.Counter("ilp.incumbents").Value(); got != int64(res.Stats.Incumbents) {
		t.Errorf("ilp.incumbents counter = %d, want %d", got, res.Stats.Incumbents)
	}
	if got := reg.Histogram("ilp.solve_time").Count(); got != int64(res.Stats.NumILPs) {
		t.Errorf("solve_time observations = %d, want %d", got, res.Stats.NumILPs)
	}
	maxGap := 0.0
	for _, rec := range res.Stats.Solves {
		maxGap = math.Max(maxGap, rec.Gap)
	}
	if got := reg.Gauge("ilp.gap.max").Value(); got != maxGap {
		t.Errorf("ilp.gap.max gauge = %g, want the largest record gap %g", got, maxGap)
	}
}

// TestGapLastIsFinalSolveGap checks that the ilp.gap.last gauge ends a
// plan at the gap of the last solve in record order — not of the solve
// that finished last, which at pool width 4 may be another — and that
// incumbent events carry no gap: the search knows its gap only when it
// ends.
func TestGapLastIsFinalSolveGap(t *testing.T) {
	g := statsGraph(t)
	reg := obs.NewRegistry()
	elog := obs.NewEventLog(nil)
	var res *Result
	var err error
	withPoolWidth(4, func() {
		res, err = Parallelize(g, platform.ConfigA(), 0, Heterogeneous, Config{
			Metrics: reg,
			Events:  elog,
			Store:   solstore.New(solstore.Options{}),
		})
	})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	solves := res.Stats.Solves
	if len(solves) == 0 {
		t.Fatal("no solve records")
	}
	last := solves[len(solves)-1].Gap
	if got := reg.Gauge("ilp.gap.last").Value(); got != last {
		t.Errorf("ilp.gap.last = %g, want the last record's gap %g", got, last)
	}
	incumbents := 0
	for _, ev := range elog.Recent(0) {
		if ev.Kind != "ilp-incumbent" {
			continue
		}
		incumbents++
		if _, ok := ev.Fields["gap"]; ok {
			t.Errorf("incumbent event %d carries a gap field: %v", ev.Seq, ev.Fields)
		}
	}
	if incumbents == 0 {
		t.Error("no ilp-incumbent events")
	}
}
