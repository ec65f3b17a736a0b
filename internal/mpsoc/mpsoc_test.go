package mpsoc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/htg"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/platform"
)

func buildGraph(t *testing.T, src string) *htg.Graph {
	t.Helper()
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	in := interp.New(prog)
	prof, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	g, err := htg.Build(prog, prof, htg.Config{})
	if err != nil {
		t.Fatalf("htg: %v", err)
	}
	return g
}

const simLoopSrc = `
#define N 512
float a[N]; float b[N];
void main(void) {
    for (int i = 0; i < N; i++) {
        float x = i * 0.5;
        a[i] = x * x + sqrt(x + 1.0) * 3.0;
    }
    for (int j = 0; j < N; j++) {
        b[j] = a[j] * 2.0 + sqrt(a[j] + 4.0);
    }
}
`

func TestSequentialBaselineMatchesCostModel(t *testing.T) {
	g := buildGraph(t, simLoopSrc)
	pf := platform.ConfigA()
	sim := New(pf, false)
	main := platform.ScenarioAccelerator.MainClass(pf)
	seq := sim.SequentialBaseline(g, main)
	want := float64(g.Root.TotalCount) * g.Root.CostNanosOn(pf.Classes[main])
	if seq != want {
		t.Errorf("baseline %g != cost model %g", seq, want)
	}
	// Running the sequential solution must reproduce the same number.
	seqSol := &core.Solution{Node: g.Root, Kind: core.KindSequential, MainClass: main, NumTasks: 1}
	res, err := sim.Run(seqSol, main)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if diff := res.MakespanNs - seq; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sequential makespan %g != baseline %g", res.MakespanNs, seq)
	}
}

func parallelize(t *testing.T, g *htg.Graph, pf *platform.Platform, sc platform.Scenario, ap core.Approach) *core.Result {
	t.Helper()
	res, err := core.Parallelize(g, pf, sc.MainClass(pf), ap, core.Config{})
	if err != nil {
		t.Fatalf("parallelize: %v", err)
	}
	return res
}

func TestHeteroSpeedupWithinTheoreticalLimit(t *testing.T) {
	g := buildGraph(t, simLoopSrc)
	pf := platform.ConfigA()
	main := platform.ScenarioAccelerator.MainClass(pf)
	res := parallelize(t, g, pf, platform.ScenarioAccelerator, core.Heterogeneous)
	sim := New(pf, false)
	meas, err := sim.Run(res.Best, main)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	seq := sim.SequentialBaseline(g, main)
	sp := Speedup(seq, meas.MakespanNs)
	limit := pf.TheoreticalSpeedup(main)
	if sp <= 1 {
		t.Errorf("heterogeneous speedup %.2f should exceed 1", sp)
	}
	if sp > limit {
		t.Errorf("speedup %.2f exceeds theoretical limit %.2f (simulator too optimistic)", sp, limit)
	}
	t.Logf("hetero accelerator speedup: %.2fx (limit %.2fx)", sp, limit)
}

func TestHomoRoundRobinSuffersOnSkewedPlatform(t *testing.T) {
	g := buildGraph(t, simLoopSrc)
	pf := platform.ConfigA()
	// Scenario II: fast main core.
	main := platform.ScenarioSlowerCores.MainClass(pf)
	hom := parallelize(t, g, pf, platform.ScenarioSlowerCores, core.Homogeneous)
	het := parallelize(t, g, pf, platform.ScenarioSlowerCores, core.Heterogeneous)
	simH := New(pf, true)
	measHom, err := simH.Run(hom.Best, main)
	if err != nil {
		t.Fatalf("sim hom: %v", err)
	}
	simHet := New(pf, false)
	measHet, err := simHet.Run(het.Best, main)
	if err != nil {
		t.Fatalf("sim het: %v", err)
	}
	seq := simHet.SequentialBaseline(g, main)
	spHom := Speedup(seq, measHom.MakespanNs)
	spHet := Speedup(seq, measHet.MakespanNs)
	t.Logf("slower-cores scenario: homo %.2fx, hetero %.2fx", spHom, spHet)
	if spHet <= spHom {
		t.Errorf("hetero (%.2f) should beat homo (%.2f) on a skewed platform", spHet, spHom)
	}
	if spHet < 1 {
		t.Errorf("hetero speedup %.2f dropped below 1 (paper result 4: never below 1)", spHet)
	}
}

func TestUtilizationBounds(t *testing.T) {
	g := buildGraph(t, simLoopSrc)
	pf := platform.ConfigB()
	main := platform.ScenarioAccelerator.MainClass(pf)
	res := parallelize(t, g, pf, platform.ScenarioAccelerator, core.Heterogeneous)
	sim := New(pf, false)
	meas, err := sim.Run(res.Best, main)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i, u := range meas.Utilization {
		if u < -1e-9 || u > 1+1e-9 {
			t.Errorf("core %d utilization %.3f out of [0,1]", i, u)
		}
	}
	if meas.MakespanNs <= 0 {
		t.Errorf("makespan must be positive")
	}
	if out := meas.FormatUtilization(pf); len(out) == 0 {
		t.Errorf("FormatUtilization empty")
	}
}

func TestMakespanLowerBounds(t *testing.T) {
	// The makespan can never beat total-work / aggregate-speed.
	g := buildGraph(t, simLoopSrc)
	pf := platform.ConfigA()
	main := platform.ScenarioAccelerator.MainClass(pf)
	res := parallelize(t, g, pf, platform.ScenarioAccelerator, core.Heterogeneous)
	sim := New(pf, false)
	meas, err := sim.Run(res.Best, main)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	seq := sim.SequentialBaseline(g, main)
	bound := seq / pf.TheoreticalSpeedup(main)
	if meas.MakespanNs < bound-1e-6 {
		t.Errorf("makespan %.0f beats the work/speed bound %.0f", meas.MakespanNs, bound)
	}
}

// busSrc has two independent recurrences: neither loop can be split into
// iteration chunks, so the plan runs them as tasks of their own, and
// the final loop reads both results back.
const busSrc = `
#define N 512
float a[N]; float b[N]; float c[N];
void main(void) {
    a[0] = 1.0; b[0] = 2.0;
    for (int i = 1; i < N; i++) { a[i] = a[i - 1] * 0.5 + sqrt(i * 1.0 + 1.0) * 2.0; }
    for (int j = 1; j < N; j++) { b[j] = b[j - 1] * 0.25 + sqrt(j * 2.0 + 1.0) * 3.0; }
    for (int k = 0; k < N; k++) { c[k] = a[k] + b[k]; }
}
`

func TestBusTransfersCounted(t *testing.T) {
	// Dependent statements in different tasks must move data over the bus.
	g := buildGraph(t, busSrc)
	pf := platform.ConfigA()
	main := platform.ScenarioAccelerator.MainClass(pf)
	res := parallelize(t, g, pf, platform.ScenarioAccelerator, core.Heterogeneous)
	if res.Best.NumTasks < 2 {
		t.Fatalf("plan has %d task(s); want the recurrences in tasks of their own", res.Best.NumTasks)
	}
	sim := New(pf, false)
	meas, err := sim.Run(res.Best, main)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if meas.Transfers == 0 || meas.BytesMoved == 0 {
		t.Errorf("expected bus traffic, got %d transfers / %.0f bytes", meas.Transfers, meas.BytesMoved)
	}
}

func TestMeasuredVsEstimatedAgreeRoughly(t *testing.T) {
	g := buildGraph(t, simLoopSrc)
	pf := platform.ConfigA()
	main := platform.ScenarioAccelerator.MainClass(pf)
	res := parallelize(t, g, pf, platform.ScenarioAccelerator, core.Heterogeneous)
	sim := New(pf, false)
	meas, err := sim.Run(res.Best, main)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	ratio := meas.MakespanNs / res.Best.TimeNs
	if ratio < 0.3 || ratio > 3.5 {
		t.Errorf("measured %.0f vs estimated %.0f diverge too much (ratio %.2f)",
			meas.MakespanNs, res.Best.TimeNs, ratio)
	}
}

// TestDependentTasksSerialize builds a two-task plan whose second task
// consumes the first task's output: the simulator must serialize them and
// charge a bus transfer, so the makespan is at least the sum of both
// durations.
func TestDependentTasksSerialize(t *testing.T) {
	g := buildGraph(t, `
float a[256]; float b[256];
void main(void) {
    for (int i = 0; i < 256; i++) { a[i] = i * 0.5; }
    for (int j = 0; j < 256; j++) { b[j] = a[j] * 2.0; }
}
`)
	pf := platform.ConfigA()
	prod := g.Root.Children[0]
	cons := g.Root.Children[1]
	sol := &core.Solution{
		Node:      g.Root,
		Kind:      core.KindTaskParallel,
		MainClass: 2,
		NumTasks:  2,
		ProcsUsed: []int{0, 0, 2},
		Tasks: []*core.TaskPlan{
			{Class: 2, Items: []*core.ItemPlan{{Child: prod}}},
			{Class: 2, Items: []*core.ItemPlan{{Child: cons}}},
		},
	}
	sim := New(pf, false)
	meas, err := sim.Run(sol, 2)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	c2 := pf.Classes[2]
	prodNs := float64(prod.TotalCount) * prod.CostNanosOn(c2)
	consNs := float64(cons.TotalCount) * cons.CostNanosOn(c2)
	if meas.MakespanNs < prodNs+consNs {
		t.Errorf("dependent tasks overlapped: makespan %.0f < %.0f + %.0f",
			meas.MakespanNs, prodNs, consNs)
	}
	if meas.Transfers == 0 {
		t.Errorf("cross-task dependence should use the bus")
	}
}

// TestIndependentTasksOverlap: without an edge, two equal tasks on two
// fast cores run concurrently.
func TestIndependentTasksOverlap(t *testing.T) {
	g := buildGraph(t, `
float a[256]; float b[256];
void main(void) {
    for (int i = 0; i < 256; i++) { a[i] = i * 0.5; }
    for (int j = 0; j < 256; j++) { b[j] = j * 2.0; }
}
`)
	pf := platform.ConfigA()
	one := g.Root.Children[0]
	two := g.Root.Children[1]
	sol := &core.Solution{
		Node:      g.Root,
		Kind:      core.KindTaskParallel,
		MainClass: 2,
		NumTasks:  2,
		ProcsUsed: []int{0, 0, 2},
		Tasks: []*core.TaskPlan{
			{Class: 2, Items: []*core.ItemPlan{{Child: one}}},
			{Class: 2, Items: []*core.ItemPlan{{Child: two}}},
		},
	}
	sim := New(pf, false)
	meas, err := sim.Run(sol, 2)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	c2 := pf.Classes[2]
	oneNs := float64(one.TotalCount) * one.CostNanosOn(c2)
	twoNs := float64(two.TotalCount) * two.CostNanosOn(c2)
	// Allow fork + boundary-communication overheads, but require genuine
	// overlap: clearly below the serial sum.
	if meas.MakespanNs > 0.9*(oneNs+twoNs) {
		t.Errorf("independent tasks did not overlap: makespan %.0f vs serial %.0f",
			meas.MakespanNs, oneNs+twoNs)
	}
}

// TestBusContentionSerializesTransfers: two simultaneous transfers share
// one bus, so total transfer time adds up.
func TestBusContentionSerializesTransfers(t *testing.T) {
	pf := platform.ConfigA()
	sim := New(pf, false)
	start := 0.0
	a1 := sim.transfer(start, 8000, 1)
	a2 := sim.transfer(start, 8000, 1)
	single := pf.CommCostNs(8000)
	if a1 < start+single-1e-9 {
		t.Errorf("first transfer too fast: %g < %g", a1, single)
	}
	if a2 < a1+single-1e-9 {
		t.Errorf("second transfer overlapped the bus: %g < %g", a2, a1+single)
	}
}

// TestEnergyAccounting: the parallel run must consume more instantaneous
// power but can still win total energy by shortening the idle-burn window;
// at minimum the accounting must be positive, and the sequential baseline
// energy must exceed pure main-core active energy (idle cores burn too).
func TestEnergyAccounting(t *testing.T) {
	g := buildGraph(t, simLoopSrc)
	pf := platform.ConfigA()
	main := platform.ScenarioAccelerator.MainClass(pf)
	res := parallelize(t, g, pf, platform.ScenarioAccelerator, core.Heterogeneous)
	sim := New(pf, false)
	meas, err := sim.Run(res.Best, main)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if meas.EnergyUJ <= 0 {
		t.Fatalf("no energy accounted")
	}
	seqE := sim.SequentialEnergyUJ(g, main)
	span := sim.SequentialBaseline(g, main)
	mainActive := pf.Classes[main].ActivePowerMW() * span / 1e6
	if seqE <= mainActive {
		t.Errorf("sequential energy %.1f must include idle burn beyond main-core %.1f", seqE, mainActive)
	}
	// The parallel run on the slow-main scenario is ~10x shorter; even with
	// all cores active its energy must undercut the sequential baseline's
	// long idle burn.
	if meas.EnergyUJ >= seqE {
		t.Errorf("parallel energy %.1f should beat sequential %.1f here", meas.EnergyUJ, seqE)
	}
	if meas.EDP() <= 0 {
		t.Errorf("EDP must be positive")
	}
}
