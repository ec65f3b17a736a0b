package ilp

import (
	"testing"
	"time"
)

// knapsackModel builds a small maximization-as-minimization knapsack
// with enough structure to need real branching.
func knapsackModel() *Model {
	m := NewModel()
	vals := []float64{10, 13, 7, 8, 9, 11, 6, 12}
	wts := []float64{5, 7, 3, 4, 5, 6, 2, 7}
	var terms []Term
	for i, v := range vals {
		x := m.AddBinary("x", -v) // minimize -value
		terms = append(terms, Term{Var: x, Coeff: wts[i]})
	}
	m.AddCons("cap", terms, LE, 18)
	return m
}

func TestProgressHookFires(t *testing.T) {
	m := knapsackModel()
	var incumbents int
	res := Solve(m, Options{
		Progress: func(ProgressEvent) { incumbents++ },
	})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if incumbents == 0 {
		t.Errorf("no incumbent events fired")
	}
	if incumbents != res.Incumbents {
		t.Errorf("incumbent events = %d but Result.Incumbents = %d", incumbents, res.Incumbents)
	}
}

func TestNodeCapReported(t *testing.T) {
	m := knapsackModel()
	// MaxNodes below the default forces truncation after the DFS phase
	// found an incumbent.
	res := Solve(m, Options{MaxNodes: 1, RelGap: -1})
	if res.Status == StatusOptimal {
		t.Skip("model solved within one node; cannot exercise the cap")
	}
	if !res.NodeCapped {
		t.Errorf("NodeCapped not set on truncated search (status %v, nodes %d)", res.Status, res.Nodes)
	}
	if res.TimedOut {
		t.Errorf("TimedOut set without a deadline")
	}
}

func TestTimeoutReported(t *testing.T) {
	m := knapsackModel()
	res := Solve(m, Options{Deadline: time.Now().Add(-time.Second)})
	if res.TimedOut != true {
		t.Errorf("TimedOut not set when the deadline already passed (status %v)", res.Status)
	}
	if res.NodeCapped {
		t.Errorf("NodeCapped set spuriously")
	}
}

func TestOptimalSolveHasNoTruncationFlags(t *testing.T) {
	m := knapsackModel()
	res := Solve(m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if res.TimedOut || res.NodeCapped {
		t.Errorf("truncation flags set on a proven-optimal solve")
	}
	if res.Incumbents == 0 {
		t.Errorf("optimal solve should have found at least one incumbent")
	}
}

// BenchmarkSolveNoHook is the observability-disabled baseline: Options
// with a nil Progress hook must not add work or allocations to the
// branch-and-bound loop.
func BenchmarkSolveNoHook(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := Solve(knapsackModel(), Options{})
		if res.Status != StatusOptimal {
			b.Fatalf("status = %v", res.Status)
		}
	}
}

// BenchmarkSolveWithHook measures the same solve with a progress hook
// installed, for comparison against BenchmarkSolveNoHook.
func BenchmarkSolveWithHook(b *testing.B) {
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		res := Solve(knapsackModel(), Options{Progress: func(ProgressEvent) { events++ }})
		if res.Status != StatusOptimal {
			b.Fatalf("status = %v", res.Status)
		}
	}
	if events == 0 {
		b.Fatalf("hook never fired")
	}
}
