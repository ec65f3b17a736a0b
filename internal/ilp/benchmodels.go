package ilp

import "math"

// This file builds the reference models used by the solver benchmarks
// (internal/ilp perf benchmarks and cmd/benchjson). They live in the
// package proper — not a _test.go file — so the JSON benchmark harness
// can share them.

// BenchChunkModel replicates the parallelizer's chunk-region ILP shape
// (Eq. 2–18 of the paper plus the strengthening cuts the parallelizer
// adds): K chunk items over T tasks and C processor classes, minimizing
// the region makespan. It is the solver's production hot-path workload.
func BenchChunkModel() *Model {
	m := NewModel()
	K, T, C := 12, 4, 3
	speeds := []float64{1, 2.5, 5}
	counts := []float64{1, 1, 2}
	W := 430100.0
	x := make([][]VarID, K)
	pv := make([][]VarID, K)
	for n := 0; n < K; n++ {
		x[n] = make([]VarID, T)
		for tt := 0; tt < T; tt++ {
			x[n][tt] = m.AddBinary("x", 0)
		}
		pv[n] = make([]VarID, C)
		for c := 0; c < C; c++ {
			pv[n][c] = m.AddBinary("p", 0)
		}
	}
	mp := make([][]VarID, T)
	used := make([]VarID, T)
	for tt := 0; tt < T; tt++ {
		mp[tt] = make([]VarID, C)
		for c := 0; c < C; c++ {
			mp[tt][c] = m.AddBinary("map", 0)
		}
		used[tt] = m.AddBinary("used", 0)
	}
	contrib := make([][]VarID, K)
	for n := 0; n < K; n++ {
		contrib[n] = make([]VarID, T)
		for tt := 0; tt < T; tt++ {
			contrib[n][tt] = m.AddVar("ctr", 0, math.Inf(1), 0)
		}
	}
	cost := make([]VarID, T)
	for tt := 0; tt < T; tt++ {
		cost[tt] = m.AddVar("cost", 0, math.Inf(1), 0)
	}
	exectime := m.AddVar("exectime", 0, W*0.999, 1)
	for n := 0; n < K; n++ {
		var terms []Term
		for tt := 0; tt < T; tt++ {
			terms = append(terms, Term{x[n][tt], 1})
		}
		m.AddCons("eq2", terms, EQ, 1)
		terms = nil
		for c := 0; c < C; c++ {
			terms = append(terms, Term{pv[n][c], 1})
		}
		m.AddCons("eq4", terms, EQ, 1)
	}
	for tt := 0; tt < T; tt++ {
		var terms []Term
		for c := 0; c < C; c++ {
			terms = append(terms, Term{mp[tt][c], 1})
		}
		m.AddCons("eq13", terms, EQ, 1)
	}
	m.AddCons("main", []Term{{mp[0][0], 1}}, EQ, 1)
	for n := 0; n+1 < K; n++ {
		var terms []Term
		for tt := 1; tt < T; tt++ {
			terms = append(terms, Term{x[n+1][tt], float64(tt)}, Term{x[n][tt], -float64(tt)})
		}
		m.AddCons("eq10", terms, GE, 0)
	}
	for tt := 0; tt < T; tt++ {
		for n := 0; n < K; n++ {
			m.AddCons("used", []Term{{used[tt], 1}, {x[n][tt], -1}}, GE, 0)
		}
	}
	for n := 0; n < K; n++ {
		worst := W / 12
		for tt := 0; tt < T; tt++ {
			for c := 0; c < C; c++ {
				m.AddCons("eq18", []Term{{pv[n][c], 1}, {x[n][tt], -1}, {mp[tt][c], -1}}, GE, -1)
			}
			terms := []Term{{contrib[n][tt], 1}, {x[n][tt], -worst}}
			for c := 0; c < C; c++ {
				terms = append(terms, Term{pv[n][c], -W / 12 / speeds[c]})
			}
			m.AddCons("eq8", terms, GE, -worst)
		}
	}
	for tt := 0; tt < T; tt++ {
		terms := []Term{{cost[tt], 1}}
		if tt != 0 {
			terms = append(terms, Term{used[tt], -2500})
		}
		for n := 0; n < K; n++ {
			terms = append(terms, Term{contrib[n][tt], -1})
		}
		m.AddCons("cost", terms, GE, 0)
		m.AddCons("eq11", []Term{{exectime, 1}, {cost[tt], -1}}, GE, 0)
	}
	for c := 0; c < C; c++ {
		var terms []Term
		for tt := 0; tt < T; tt++ {
			terms = append(terms, Term{mp[tt][c], 1})
		}
		m.AddCons("eq16", terms, LE, counts[c]+float64(T)) // loose
	}
	// Strengthening cuts like the parallelizer's.
	for c := 0; c < C; c++ {
		terms := []Term{{exectime, counts[c]}}
		for n := 0; n < K; n++ {
			terms = append(terms, Term{pv[n][c], -W / 12 / speeds[c]})
		}
		m.AddCons("cut_classwork", terms, GE, 0)
	}
	{
		var terms []Term
		for tt := 0; tt < T; tt++ {
			terms = append(terms, Term{cost[tt], 1})
		}
		for n := 0; n < K; n++ {
			for c := 0; c < C; c++ {
				terms = append(terms, Term{pv[n][c], -W / 12 / speeds[c]})
			}
		}
		m.AddCons("cut_conservation", terms, GE, 0)
	}
	return m
}

// BenchKnapsackModel builds a deterministic n-item 0/1 knapsack with a
// weak LP bound: many equal-ish value densities keep the search tree
// busy, exercising warm starts and node throughput rather than the root
// relaxation. seed varies the instance deterministically.
func BenchKnapsackModel(n int, seed uint64) *Model {
	m := NewModel()
	rng := seed
	next := func(mod int) float64 {
		rng = mix64(rng)
		return float64(int(rng%uint64(mod)) + 1)
	}
	var terms []Term
	for i := 0; i < n; i++ {
		w := next(60) + 20
		v := w + next(7) // density near 1: hard for the bound
		id := m.AddBinary("b", -v)
		terms = append(terms, Term{id, w})
	}
	m.AddCons("cap", terms, LE, 12*float64(n))
	return m
}

// BenchAssignmentModel builds a t-task × c-class assignment model with
// set-partitioning rows and class-capacity knapsacks, a search-heavy
// shape with many near-tied fractional assignments.
func BenchAssignmentModel(t, c int, seed uint64) *Model {
	m := NewModel()
	rng := seed
	next := func(mod int) float64 {
		rng = mix64(rng)
		return float64(int(rng%uint64(mod)) + 1)
	}
	x := make([][]VarID, t)
	for i := 0; i < t; i++ {
		x[i] = make([]VarID, c)
		var row []Term
		for j := 0; j < c; j++ {
			x[i][j] = m.AddBinary("x", next(9))
			row = append(row, Term{x[i][j], 1})
		}
		m.AddCons("assign", row, EQ, 1)
	}
	for j := 0; j < c; j++ {
		var row []Term
		for i := 0; i < t; i++ {
			row = append(row, Term{x[i][j], next(5) + 2})
		}
		m.AddCons("cap", row, LE, 3*float64(t)/float64(c)+4)
	}
	return m
}
