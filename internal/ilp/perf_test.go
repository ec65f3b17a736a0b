package ilp

import (
	"testing"
	"time"
)

// TestChunkLPSmoke keeps a single generous wall-clock bound on the
// production chunk-region model: the root relaxation and a truncated
// MILP solve must finish comfortably within CI noise margins. Detailed
// timing lives in the benchmarks below (and in BENCH_ilp.json via
// `make bench-json`), not in assertions.
func TestChunkLPSmoke(t *testing.T) {
	m := BenchChunkModel()
	start := time.Now()
	lp := SolveRelaxation(m)
	if lp.Status != LPOptimal {
		t.Fatalf("root LP status %v", lp.Status)
	}
	t.Logf("root LP: obj=%.0f iters=%d in %v (vars=%d cons=%d)",
		lp.Obj, lp.Iters, time.Since(start), m.NumVars(), m.NumCons())
	start = time.Now()
	res := Solve(m, Options{MaxNodes: 3000, Deadline: time.Now().Add(5 * time.Second), RelGap: 0.05})
	t.Logf("MILP: status=%v obj=%.0f nodes=%d lpIters=%d warm=%d/%d in %v",
		res.Status, res.Obj, res.Nodes, res.LPIters, res.WarmHits, res.WarmStarts,
		time.Since(start))
	if res.Status != StatusOptimal && res.Status != StatusFeasible {
		t.Errorf("expected a solution, got %v", res.Status)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Errorf("MILP smoke took %v, want < 8s", elapsed)
	}
}

// BenchmarkRootRelaxation times the cold root LP solve of the chunk
// model — the compile + revised-simplex path every B&B solve starts with.
func BenchmarkRootRelaxation(b *testing.B) {
	m := BenchChunkModel()
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		lp := SolveRelaxation(m)
		if lp.Status != LPOptimal {
			b.Fatalf("status %v", lp.Status)
		}
		iters = lp.Iters
	}
	b.ReportMetric(float64(iters), "lp-iters/op")
}

// benchSolve runs the full MILP solve under opt and reports solver
// effort counters next to ns/op.
func benchSolve(b *testing.B, m *Model, opt Options) {
	b.Helper()
	var res Result
	for i := 0; i < b.N; i++ {
		res = Solve(m, opt)
		if res.Status != StatusOptimal && res.Status != StatusFeasible {
			b.Fatalf("status %v", res.Status)
		}
	}
	b.ReportMetric(float64(res.Nodes), "nodes/op")
	b.ReportMetric(float64(res.LPIters), "lp-iters/op")
	if res.WarmStarts > 0 {
		b.ReportMetric(100*float64(res.WarmHits)/float64(res.WarmStarts), "warm-hit-%")
	}
}

// BenchmarkChunkMILP solves the production chunk model to a 5% gap, the
// parallelizer's configuration.
func BenchmarkChunkMILP(b *testing.B) {
	m := BenchChunkModel()
	b.ResetTimer()
	benchSolve(b, m, Options{MaxNodes: 3000, RelGap: 0.05})
}

// BenchmarkKnapsackMILP stresses node throughput on a weak-bound
// knapsack: nearly every node warm-starts from its parent.
func BenchmarkKnapsackMILP(b *testing.B) {
	m := BenchKnapsackModel(60, 7)
	b.ResetTimer()
	benchSolve(b, m, Options{MaxNodes: 5000})
}

// BenchmarkAssignmentMILP searches set-partitioning rows coupled by
// capacity knapsacks, where the dive backtracks heavily before its
// first incumbent.
func BenchmarkAssignmentMILP(b *testing.B) {
	m := BenchAssignmentModel(14, 4, 3)
	b.ResetTimer()
	benchSolve(b, m, Options{MaxNodes: 5000})
}
