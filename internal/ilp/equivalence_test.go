package ilp

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// ---- seeded model generation ----------------------------------------

// eqvRng is a splitmix64 stream for deterministic model generation.
type eqvRng struct{ s uint64 }

func (r *eqvRng) next() uint64 {
	r.s++
	return mix64(r.s)
}

// f64 returns a uniform float in [0, 1).
func (r *eqvRng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (r *eqvRng) intn(n int) int { return int(r.next() % uint64(n)) }

// randomModel builds a feasible bounded model: every constraint's RHS is
// derived from a reference point inside the box, so the dense reference
// and the revised solver must both report LPOptimal.
func randomModel(seed uint64, nVars, nCons int, integral bool) *Model {
	rng := &eqvRng{s: seed * 0x9e3779b97f4a7c15}
	m := NewModel()
	ref := make([]float64, nVars)
	for j := 0; j < nVars; j++ {
		hi := 1 + float64(rng.intn(9))
		obj := math.Round((rng.f64()*20-5)*8) / 8
		if integral && rng.intn(3) > 0 {
			m.AddInt(fmt.Sprintf("x%d", j), 0, hi, obj)
		} else {
			m.AddVar(fmt.Sprintf("x%d", j), 0, hi, obj)
		}
		ref[j] = rng.f64() * hi
	}
	for i := 0; i < nCons; i++ {
		nTerms := 2 + rng.intn(nVars/2+1)
		var terms []Term
		act := 0.0
		seen := map[int]bool{}
		for len(terms) < nTerms {
			j := rng.intn(nVars)
			if seen[j] {
				continue
			}
			seen[j] = true
			c := math.Round((rng.f64()*8-3)*4) / 4
			if c == 0 {
				c = 1
			}
			terms = append(terms, Term{Var: VarID(j), Coeff: c})
			act += c * ref[j]
		}
		switch rng.intn(3) {
		case 0:
			m.AddCons(fmt.Sprintf("le%d", i), terms, LE, act+rng.f64()*2)
		case 1:
			m.AddCons(fmt.Sprintf("ge%d", i), terms, GE, act-rng.f64()*2)
		default:
			m.AddCons(fmt.Sprintf("eq%d", i), terms, EQ, act)
		}
	}
	return m
}

// ---- LP equivalence: dense reference vs revised simplex -------------

func objClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-4*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestLPEquivalenceSeeded solves a spread of seeded random relaxations
// with both engines and requires identical status and matching optima.
func TestLPEquivalenceSeeded(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		nVars := 4 + int(seed%13)
		nCons := 3 + int((seed*7)%11)
		m := randomModel(seed, nVars, nCons, false)
		ref := densSolveLP(m, nil, nil)
		got := SolveRelaxation(m)
		if ref.Status != LPOptimal || got.Status != LPOptimal {
			t.Fatalf("seed %d: status dense=%v revised=%v", seed, ref.Status, got.Status)
		}
		if !objClose(ref.Obj, got.Obj) {
			t.Errorf("seed %d: objective dense=%.9g revised=%.9g", seed, ref.Obj, got.Obj)
		}
	}
}

// TestLPEquivalenceBranchBounds replays branch-and-bound-style bound
// overrides — the warm-start path's input — against the dense reference.
func TestLPEquivalenceBranchBounds(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		m := randomModel(seed+100, 8+int(seed%6), 6+int(seed%5), true)
		base := SolveRelaxation(m)
		if base.Status != LPOptimal {
			continue
		}
		// Branch on the first fractional integer variable both ways.
		frac := pickBranchVar(m, base.X)
		if frac < 0 {
			continue
		}
		v := base.X[frac]
		n := m.NumVars()
		for dir := 0; dir < 2; dir++ {
			lo := make([]float64, n)
			hi := make([]float64, n)
			for j := range lo {
				lo[j] = math.Inf(-1)
				hi[j] = math.Inf(1)
			}
			if dir == 0 {
				hi[frac] = math.Floor(v)
			} else {
				lo[frac] = math.Ceil(v)
			}
			ref := densSolveLP(m, lo, hi)
			got := solveLP(m, lo, hi, time.Time{})
			if ref.Status != got.Status {
				t.Fatalf("seed %d dir %d: status dense=%v revised=%v", seed, dir, ref.Status, got.Status)
			}
			if ref.Status == LPOptimal && !objClose(ref.Obj, got.Obj) {
				t.Errorf("seed %d dir %d: objective dense=%.9g revised=%.9g", seed, dir, ref.Obj, got.Obj)
			}
		}
	}
}

// TestLPEquivalenceProductionModels checks the engines agree on the
// models the parallelizer actually emits.
func TestLPEquivalenceProductionModels(t *testing.T) {
	models := map[string]*Model{
		"chunk":      BenchChunkModel(),
		"knapsack":   BenchKnapsackModel(24, 3),
		"assignment": BenchAssignmentModel(8, 3, 2),
	}
	for name, m := range models {
		ref := densSolveLP(m, nil, nil)
		got := SolveRelaxation(m)
		if ref.Status != got.Status {
			t.Fatalf("%s: status dense=%v revised=%v", name, ref.Status, got.Status)
		}
		if ref.Status == LPOptimal && !objClose(ref.Obj, got.Obj) {
			t.Errorf("%s: objective dense=%.9g revised=%.9g", name, ref.Obj, got.Obj)
		}
	}
}

// ---- MILP correctness against brute force ---------------------------

// TestMILPMatchesBruteForce cross-checks full branch-and-bound solves
// against exhaustive enumeration on small seeded binary models.
func TestMILPMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := &eqvRng{s: seed * 31}
		m := NewModel()
		n := 8 + int(seed%5)
		ref := make([]float64, n)
		for j := 0; j < n; j++ {
			m.AddBinary(fmt.Sprintf("b%d", j), math.Round((rng.f64()*20-6)*4)/4)
			ref[j] = float64(rng.intn(2))
		}
		for i := 0; i < 4+int(seed%4); i++ {
			var terms []Term
			act := 0.0
			for j := 0; j < n; j++ {
				if rng.intn(2) == 0 {
					continue
				}
				c := float64(1 + rng.intn(4))
				terms = append(terms, Term{Var: VarID(j), Coeff: c})
				act += c * ref[j]
			}
			if len(terms) < 2 {
				continue
			}
			m.AddCons(fmt.Sprintf("c%d", i), terms, LE, act+float64(rng.intn(3)))
		}
		want, _ := bruteForceBinary(m)
		res := Solve(m, Options{})
		if math.IsInf(want, 1) {
			if res.Status != StatusInfeasible && res.Status != StatusNoSolution {
				t.Errorf("seed %d: brute force infeasible, solver %v obj=%g", seed, res.Status, res.Obj)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v, want optimal (brute force %g)", seed, res.Status, want)
		}
		if !objClose(res.Obj, want) {
			t.Errorf("seed %d: solver obj %.9g, brute force %.9g", seed, res.Obj, want)
		}
	}
}

// ---- search reproducibility ---------------------------------------

// resultKey serializes everything that must be reproducible: status,
// objective and solution bit patterns, and every effort counter.
func resultKey(res Result) string {
	s := fmt.Sprintf("st=%v obj=%x nodes=%d lpIters=%d/%d/%d/%d warm=%d/%d inc=%d gap=%x",
		res.Status, math.Float64bits(res.Obj), res.Nodes,
		res.LPIters, res.LPItersRoot, res.LPItersDive, res.LPItersSearch,
		res.WarmHits, res.WarmStarts, res.Incumbents, math.Float64bits(res.Gap))
	for _, v := range res.X {
		s += fmt.Sprintf(" %x", math.Float64bits(v))
	}
	return s
}
