package ilp

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// trajectoryGolden holds one "case<TAB>resultKey" line per
// (model, options) pair of trajectoryCases.
const trajectoryGolden = "testdata/trajectory.golden"

type trajectoryCase struct {
	name string
	m    *Model
	opt  Options
}

// trajectoryCases crosses the bench models with the option sets the
// parallelizer, the benchmarks and design-space sweeps run: gap-bounded,
// proof-seeking and tightly node-capped searches.
func trajectoryCases() []trajectoryCase {
	models := []struct {
		name string
		m    *Model
	}{
		{"chunk", BenchChunkModel()},
		{"knapsack40x11", BenchKnapsackModel(40, 11)},
		{"knapsack60x7", BenchKnapsackModel(60, 7)},
		{"assignment14x4x3", BenchAssignmentModel(14, 4, 3)},
	}
	opts := []Options{
		{MaxNodes: 800, RelGap: 0.02},
		{MaxNodes: 3000, RelGap: 0.05},
		{MaxNodes: 5000},
		{MaxNodes: 20},
	}
	var cases []trajectoryCase
	for _, mc := range models {
		for _, o := range opts {
			cases = append(cases, trajectoryCase{
				name: fmt.Sprintf("%s/nodes=%d/gap=%g", mc.name, o.MaxNodes, o.RelGap),
				m:    mc.m,
				opt:  o,
			})
		}
	}
	return cases
}

// TestSearchTrajectory pins the exact branch-and-bound search path:
// status, objective, solution bits and every effort counter of each
// case must match the committed golden. Any change to node order,
// pruning or warm starts shows up here first; rewrite
// the golden only for a solver change that is meant to alter the path.
func TestSearchTrajectory(t *testing.T) {
	want := readTrajectoryGolden(t)
	for _, c := range trajectoryCases() {
		if testing.Short() && strings.HasPrefix(c.name, "chunk/") && c.opt.MaxNodes > 20 {
			// The full chunk searches take seconds each; under -short
			// (the race gate) the capped chunk case and the small
			// models still cover every search phase.
			continue
		}
		exp, ok := want[c.name]
		if !ok {
			t.Errorf("%s: missing from %s", c.name, trajectoryGolden)
			continue
		}
		if got := resultKey(Solve(c.m, c.opt)); got != exp {
			t.Errorf("%s: search trajectory changed:\ngot  %s\nwant %s", c.name, got, exp)
		}
	}
}

// TestWorkspaceReuse solves every trajectory case on one Workspace,
// forwards and then backwards, so each solve inherits the buffers of a
// model of another size (or of its own): the search path must still
// match the golden exactly. The capped chunk case stands in for the
// full chunk searches: it has their model size at a fraction of the time.
func TestWorkspaceReuse(t *testing.T) {
	want := readTrajectoryGolden(t)
	var cases []trajectoryCase
	for _, c := range trajectoryCases() {
		if strings.HasPrefix(c.name, "chunk/") && c.opt.MaxNodes > 20 {
			continue
		}
		cases = append(cases, c)
	}
	var ws Workspace
	for pass := 0; pass < 2; pass++ {
		for i := range cases {
			c := cases[i]
			if pass == 1 {
				c = cases[len(cases)-1-i]
			}
			if got := resultKey(ws.Solve(c.m, c.opt)); got != want[c.name] {
				t.Errorf("pass %d, %s: reused workspace changed the search:\ngot  %s\nwant %s", pass, c.name, got, want[c.name])
			}
		}
	}
}

func readTrajectoryGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(trajectoryGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, key, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("%s: malformed line %q", trajectoryGolden, sc.Text())
		}
		want[name] = key
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
