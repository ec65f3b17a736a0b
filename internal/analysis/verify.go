package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/htg"
	"repro/internal/minic"
	"repro/internal/platform"
)

// Violation is one structural defect found in a parallelization solution:
// a conflicting-access pair without an enforced ordering, a cyclic task
// dependence, an overdrawn per-class core budget, a processor-accounting
// mismatch, or a claimed critical-path cost the platform cost model cannot
// reproduce.
type Violation struct {
	// Node is the HTG region node the defective solution belongs to.
	Node *htg.Node
	// Sol is the offending solution (the outermost one when the defect is
	// found while recursing into sub-solutions).
	Sol *core.Solution
	// Kind classifies the defect: "race", "order", "cycle", "budget",
	// "procs", "cost", "class" or "structure".
	Kind string
	// Msg describes the defect.
	Msg string
}

// String renders the violation for error output.
func (v Violation) String() string {
	label := "<root>"
	if v.Node != nil && v.Node.Label != "" {
		label = v.Node.Label
	}
	if v.Sol == nil {
		return fmt.Sprintf("%s: %s: %s", label, v.Kind, v.Msg)
	}
	return fmt.Sprintf("%s: %s: %s [%s]", label, v.Kind, v.Msg, v.Sol)
}

// costRelTol absorbs the floating-point drift between the ILP's constraint
// accumulation order and the verifier's recomputation. costAbsTolNs guards
// near-zero costs. claimedRelTol is looser: incumbents pass the solver's
// feasibility check at 1e-5 over rows whose big-M coefficients dwarf the
// final objective, so a claimed makespan may sit a few parts in 1e5 below
// the exact recomputation without being corrupt. Genuine corruption (a
// dropped task, a wrong class) moves the cost by whole percents.
const (
	costRelTol    = 1e-6
	costAbsTolNs  = 1e-3
	claimedRelTol = 1e-4
)

// VerifySolution audits one solution tree against the platform cost model:
// every pair of items with conflicting accesses (write/read, write/write
// per the dataflow def/use sets) must carry an ordering the simulator
// enforces, the induced cross-task dependence graph must be acyclic, the
// per-class processor allocation must match a recomputation and fit the
// platform's core budgets (Eq. 12-16), and the claimed critical-path cost
// must be reachable from an independent recomputation of the cost model.
// Sub-solutions of items are verified recursively.
func VerifySolution(sol *core.Solution, pf *platform.Platform) []Violation {
	v := &verifier{pf: pf, seen: map[*core.Solution]bool{}}
	v.solution(sol)
	return v.out
}

// VerifyResult audits the chosen solution plus every candidate in every
// per-node parallel set of a core.Result, against the result's own
// platform (the uniform pseudo-platform for the homogeneous baseline).
// The returned violations are deterministic: sets are visited in HTG node
// ID order, candidates in set order.
func VerifyResult(res *core.Result) []Violation {
	v := &verifier{pf: res.Platform, seen: map[*core.Solution]bool{}}
	if res.Best == nil {
		v.add(nil, nil, "structure", "result has no chosen solution")
	} else {
		v.solution(res.Best)
	}
	nodes := make([]*htg.Node, 0, len(res.Sets))
	//repolint:allow maprange — order restored by the sort below.
	for n := range res.Sets {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		set := res.Sets[n]
		for c, cands := range set.ByClass {
			for _, cand := range cands {
				if cand.MainClass != c {
					v.add(n, cand, "structure",
						fmt.Sprintf("candidate filed under class %d has main class %d", c, cand.MainClass))
				}
				v.solution(cand)
			}
		}
	}
	return v.out
}

// AuditResult adapts VerifyResult to the core.Config.Audit hook: it
// returns nil for a clean result and an error carrying every violation
// otherwise, turning structural defects into hard errors.
func AuditResult(res *core.Result) error {
	vs := VerifyResult(res)
	if len(vs) == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "analysis: solution audit found %d violation(s):", len(vs))
	for i, viol := range vs {
		if i == 20 {
			fmt.Fprintf(&sb, "\n  ... %d more", len(vs)-i)
			break
		}
		sb.WriteString("\n  " + viol.String())
	}
	return fmt.Errorf("%s", sb.String())
}

// verifier carries the audit state; seen memoizes sub-solutions shared
// between candidate sets so each is verified once.
type verifier struct {
	pf   *platform.Platform
	out  []Violation
	seen map[*core.Solution]bool
	// fps memoizes per-statement footprints enumerated by the independent
	// section re-derivation (sections.go); nil entries are failed proofs.
	fps map[minic.Stmt]*footprint
}

func (v *verifier) add(n *htg.Node, sol *core.Solution, kind, msg string) {
	v.out = append(v.out, Violation{Node: n, Sol: sol, Kind: kind, Msg: msg})
}

func (v *verifier) solution(sol *core.Solution) {
	if sol == nil || v.seen[sol] {
		return
	}
	v.seen[sol] = true
	if sol.MainClass < 0 || sol.MainClass >= len(v.pf.Classes) {
		v.add(sol.Node, sol, "structure", fmt.Sprintf("main class %d out of range", sol.MainClass))
		return
	}
	switch sol.Kind {
	case core.KindSequential:
		v.sequential(sol, 1)
	case core.KindTaskParallel:
		v.taskParallel(sol)
	case core.KindChunked:
		v.chunked(sol)
	default:
		v.add(sol.Node, sol, "structure", fmt.Sprintf("unknown solution kind %d", int(sol.Kind)))
	}
}

// sequential checks the closed-form sequential cost and the trivial
// processor allocation. frac scales the expected cost for iteration-chunk
// candidates (1 for whole-node solutions).
func (v *verifier) sequential(sol *core.Solution, frac float64) {
	if sol.NumTasks != 1 || len(sol.Tasks) != 0 {
		v.add(sol.Node, sol, "structure", "sequential solution with a task plan")
		return
	}
	if sol.Node == nil {
		v.add(nil, sol, "structure", "sequential solution without a node")
		return
	}
	want := float64(sol.Node.TotalCount) * sol.Node.CostNanosOn(v.pf.Classes[sol.MainClass]) * frac
	if math.Abs(sol.TimeNs-want) > want*costRelTol+costAbsTolNs {
		v.add(sol.Node, sol, "cost",
			fmt.Sprintf("sequential cost %.3fns differs from cost-model %.3fns", sol.TimeNs, want))
	}
	for c := range v.pf.Classes {
		want := 0
		if c == sol.MainClass {
			want = 1
		}
		if got := procAt(sol.ProcsUsed, c); got != want {
			v.add(sol.Node, sol, "procs",
				fmt.Sprintf("sequential solution claims %d class-%d unit(s), want %d", got, c, want))
		}
	}
}

// checkClaimed flags a claimed critical-path cost below what the cost
// model supports. (A claim above the recomputation is legal: the solver
// may stop at a feasible incumbent whose auxiliary variables carry slack.)
func (v *verifier) checkClaimed(sol *core.Solution, recomputed float64) {
	if recomputed > sol.TimeNs*(1+claimedRelTol)+costAbsTolNs {
		v.add(sol.Node, sol, "cost",
			fmt.Sprintf("claimed cost %.3fns is below the cost-model recomputation %.3fns", sol.TimeNs, recomputed))
	}
}

// shape validates the invariants shared by every parallel kind and returns
// false when the plan is too malformed to analyze further.
func (v *verifier) shape(sol *core.Solution) bool {
	if sol.Node == nil {
		v.add(nil, sol, "structure", "parallel solution without a node")
		return false
	}
	if sol.NumTasks != len(sol.Tasks) {
		v.add(sol.Node, sol, "structure",
			fmt.Sprintf("NumTasks=%d but %d task plans", sol.NumTasks, len(sol.Tasks)))
	}
	if len(sol.Tasks) == 0 {
		v.add(sol.Node, sol, "structure", "parallel solution without tasks")
		return false
	}
	for ti, tp := range sol.Tasks {
		if tp.Class < 0 || tp.Class >= len(v.pf.Classes) {
			v.add(sol.Node, sol, "structure", fmt.Sprintf("task %d class %d out of range", ti, tp.Class))
			return false
		}
	}
	if sol.Tasks[0].Class != sol.MainClass {
		v.add(sol.Node, sol, "class",
			fmt.Sprintf("main task runs on class %d, solution's main class is %d", sol.Tasks[0].Class, sol.MainClass))
	}
	return true
}

// procsAndBudget recomputes the per-class processor allocation (each
// task's own unit plus the maximum extra units its items' sub-solutions
// hold concurrently) and checks it against both the solution's claim and
// the platform budgets of Eq. 16.
func (v *verifier) procsAndBudget(sol *core.Solution) {
	nC := len(v.pf.Classes)
	re := make([]int, nC)
	for _, tp := range sol.Tasks {
		re[tp.Class]++
		extraMax := make([]int, nC)
		for _, it := range tp.Items {
			if it.Sub == nil {
				continue
			}
			for c, e := range it.Sub.ExtraProcs() {
				if c < nC && e > extraMax[c] {
					extraMax[c] = e
				}
			}
		}
		for c := range extraMax {
			re[c] += extraMax[c]
		}
	}
	for c := 0; c < nC; c++ {
		if got := procAt(sol.ProcsUsed, c); got != re[c] {
			v.add(sol.Node, sol, "procs",
				fmt.Sprintf("claimed %d class-%d unit(s), recomputed %d", got, c, re[c]))
		}
		if re[c] > v.pf.Classes[c].Count {
			v.add(sol.Node, sol, "budget",
				fmt.Sprintf("needs %d unit(s) of class %d (%s), platform has %d",
					re[c], c, v.pf.Classes[c].Name, v.pf.Classes[c].Count))
		}
	}
}

// place maps every statement item's HTG child to its (task, position) and
// recurses into sub-solutions; duplicate children and children of the
// region node missing from the plan are structural violations.
func (v *verifier) place(sol *core.Solution) (taskOf, posOf map[*htg.Node]int) {
	taskOf = map[*htg.Node]int{}
	posOf = map[*htg.Node]int{}
	for ti, tp := range sol.Tasks {
		for pi, it := range tp.Items {
			if it.Child == nil {
				v.add(sol.Node, sol, "structure", fmt.Sprintf("task %d holds an item without a node", ti))
				continue
			}
			if it.ChunkFrac > 0 {
				v.add(sol.Node, sol, "structure",
					fmt.Sprintf("iteration chunk of %s inside a statement-level plan", it.Child.Label))
				continue
			}
			if prev, dup := taskOf[it.Child]; dup {
				v.add(sol.Node, sol, "structure",
					fmt.Sprintf("%s planned twice (tasks %d and %d)", it.Child.Label, prev, ti))
				continue
			}
			taskOf[it.Child] = ti
			posOf[it.Child] = pi
			if it.Sub != nil {
				if it.Sub.MainClass != tp.Class {
					v.add(sol.Node, sol, "class",
						fmt.Sprintf("%s's chosen candidate runs on class %d but its task %d is mapped to class %d",
							it.Child.Label, it.Sub.MainClass, ti, tp.Class))
				}
				v.solution(it.Sub)
			}
		}
	}
	for _, c := range sol.Node.Children {
		if _, ok := taskOf[c]; !ok {
			v.add(sol.Node, sol, "structure", fmt.Sprintf("child %s missing from the plan", c.Label))
		}
	}
	return taskOf, posOf
}

// hasEdge reports a dependence edge from a to a later sibling b.
func hasEdge(a, b *htg.Node) bool {
	for _, e := range a.Edges {
		if e.To == b {
			return true
		}
	}
	return false
}

// maxChildIters returns the loop trip count the cost model uses: the
// maximum per-entry execution count over the children, at least 1.
func maxChildIters(n *htg.Node) float64 {
	iters := 0.0
	for _, c := range n.Children {
		if c.Count > iters {
			iters = c.Count
		}
	}
	if iters < 1 {
		iters = 1
	}
	return iters
}

// itemCost is the execution cost of one planned item on its task's class:
// the chosen sub-solution's cost, or the sequential cost-model time.
func (v *verifier) itemCost(it *core.ItemPlan, class int) float64 {
	if it.Sub != nil {
		return it.Sub.TimeNs
	}
	if it.Child == nil {
		return 0
	}
	frac := it.ChunkFrac
	if frac == 0 {
		frac = 1
	}
	return float64(it.Child.TotalCount) * it.Child.CostNanosOn(v.pf.Classes[class]) * frac
}

// taskParallel audits a fork-join statement partition: conflicting-access
// ordering, cross-task cycle-freeness, processor budgets, and the Eq. 8-11
// critical-path recomputation.
func (v *verifier) taskParallel(sol *core.Solution) {
	if !v.shape(sol) {
		return
	}
	node := sol.Node
	taskOf, posOf := v.place(sol)

	// Every conflicting pair needs an ordering the simulator enforces:
	// same task = program order of the task's items; different tasks = a
	// dependence edge consumed by producersReady AND the producer's task
	// simulated first (lower task index).
	kids := node.Children
	for i := 0; i < len(kids); i++ {
		for j := i + 1; j < len(kids); j++ {
			a, b := kids[i], kids[j]
			ta, aok := taskOf[a]
			tb, bok := taskOf[b]
			if !aok || !bok || a.Acc == nil || b.Acc == nil {
				continue
			}
			d := dataflow.DependsOn(a.Acc, b.Acc)
			if !d.Exists() {
				continue
			}
			if ta == tb {
				if posOf[a] >= posOf[b] {
					v.add(node, sol, "order",
						fmt.Sprintf("%s must run before %s (%s dependence) but task %d lists them in the wrong order",
							a.Label, b.Label, d.Kind, ta))
				}
				continue
			}
			if !hasEdge(a, b) {
				// The whole-symbol test conflicts but the HTG carries no
				// edge: the builder's section analysis claimed disjoint
				// elements. Re-prove that claim by independent concrete
				// enumeration before excusing the pair; an unprovable
				// missing edge is a race.
				if v.sectionExcused(a, b) {
					continue
				}
				v.add(node, sol, "race",
					fmt.Sprintf("%s (task %d) and %s (task %d) conflict (%s) but no dependence edge orders them",
						a.Label, ta, b.Label, tb, d.Kind))
			}
			if ta > tb {
				v.add(node, sol, "race",
					fmt.Sprintf("%s produces for %s (%s) but its task %d is simulated after the consumer's task %d",
						a.Label, b.Label, d.Kind, ta, tb))
			}
		}
	}

	// Cycle-freeness of the induced cross-task dependence graph.
	if cyc := taskCycle(sol.Tasks, node.Children, taskOf); cyc != nil {
		v.add(node, sol, "cycle",
			fmt.Sprintf("cross-task dependences form a cycle through tasks %v", cyc))
	}

	v.procsAndBudget(sol)

	// Critical-path recomputation (Eq. 8-11): per-task costs with spawn
	// overhead and boundary in-communication, predecessor chains over the
	// cross-task edges, out-communication at the join.
	spawnCount := float64(node.TotalCount)
	if node.Kind == htg.KindLoop {
		spawnCount *= maxChildIters(node)
	}
	spawnNs := spawnCount * v.pf.TaskCreateNs
	nT := len(sol.Tasks)
	cost := make([]float64, nT)
	outSum := make([]float64, nT)
	for ti, tp := range sol.Tasks {
		for _, it := range tp.Items {
			cost[ti] += v.itemCost(it, tp.Class)
			if ti != 0 && it.Child != nil {
				cost[ti] += v.pf.CommCostNs(it.Child.InBytes) * float64(it.Child.TotalCount)
				outSum[ti] += v.pf.CommCostNs(it.Child.OutBytes) * float64(it.Child.TotalCount)
			}
		}
		if ti != 0 {
			cost[ti] += spawnNs
		}
	}
	comm := make([]float64, nT)
	pred := make([][]bool, nT)
	for i := range pred {
		pred[i] = make([]bool, nT)
	}
	for _, a := range node.Children {
		ta, ok := taskOf[a]
		if !ok {
			continue
		}
		for _, e := range a.Edges {
			tb, ok := taskOf[e.To]
			if !ok || tb == ta {
				continue
			}
			if e.Bytes > 0 {
				comm[ta] += v.pf.CommCostNs(e.Bytes) * float64(e.To.TotalCount)
			}
			if ta < tb {
				pred[ta][tb] = true
			}
		}
	}
	accum := append([]float64(nil), cost...)
	for t := 0; t < nT; t++ {
		for u := 0; u < t; u++ {
			if pred[u][t] && accum[u]+comm[u]+cost[t] > accum[t] {
				accum[t] = accum[u] + comm[u] + cost[t]
			}
		}
	}
	exec := 0.0
	for t := 0; t < nT; t++ {
		if e := accum[t] + outSum[t]; e > exec {
			exec = e
		}
	}
	v.checkClaimed(sol, exec)
}

// taskCycle detects a cycle in the cross-task dependence digraph and
// returns the task indices on it (nil when acyclic).
func taskCycle(tasks []*core.TaskPlan, kids []*htg.Node, taskOf map[*htg.Node]int) []int {
	nT := len(tasks)
	adj := make([][]bool, nT)
	for i := range adj {
		adj[i] = make([]bool, nT)
	}
	for _, a := range kids {
		ta, ok := taskOf[a]
		if !ok {
			continue
		}
		for _, e := range a.Edges {
			if tb, ok := taskOf[e.To]; ok && tb != ta {
				adj[ta][tb] = true
			}
		}
	}
	state := make([]int, nT) // 0 new, 1 on stack, 2 done
	var stack []int
	var dfs func(t int) []int
	dfs = func(t int) []int {
		state[t] = 1
		stack = append(stack, t)
		for u := 0; u < nT; u++ {
			if !adj[t][u] {
				continue
			}
			if state[u] == 1 {
				for i, s := range stack {
					if s == u {
						return append(append([]int(nil), stack[i:]...), u)
					}
				}
			}
			if state[u] == 0 {
				if cyc := dfs(u); cyc != nil {
					return cyc
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[t] = 2
		return nil
	}
	for t := 0; t < nT; t++ {
		if state[t] == 0 {
			if cyc := dfs(t); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// chunked audits a DOALL iteration split: the loop must be provably
// parallel, the chunk fractions must cover the iteration space, and the
// makespan must match the per-task chunk-cost recomputation.
func (v *verifier) chunked(sol *core.Solution) {
	if !v.shape(sol) {
		return
	}
	node := sol.Node
	if node.Kind != htg.KindLoop || node.Loop == nil || !node.Loop.Parallel {
		reason := "it is not a loop"
		if node.Kind == htg.KindLoop {
			reason = "its iterations carry dependences"
			if node.Loop != nil && node.Loop.Reason != "" {
				reason = node.Loop.Reason
			}
		}
		v.add(node, sol, "race",
			fmt.Sprintf("iteration space of %s split across tasks but %s", node.Label, reason))
	}
	spawnNs := float64(node.TotalCount) * v.pf.TaskCreateNs
	fracSum := 0.0
	nT := len(sol.Tasks)
	cost := make([]float64, nT)
	for ti, tp := range sol.Tasks {
		for _, it := range tp.Items {
			if it.Child != node || it.ChunkFrac <= 0 {
				v.add(node, sol, "structure",
					fmt.Sprintf("task %d holds a non-chunk item in a chunked plan", ti))
				continue
			}
			fracSum += it.ChunkFrac
			if it.Sub != nil {
				if it.Sub.MainClass != tp.Class {
					v.add(node, sol, "class",
						fmt.Sprintf("chunk candidate runs on class %d but task %d is mapped to class %d",
							it.Sub.MainClass, ti, tp.Class))
				}
				if it.Sub.Kind == core.KindSequential {
					v.seen[it.Sub] = true
					v.sequential(it.Sub, it.ChunkFrac)
				} else {
					v.solution(it.Sub)
				}
			}
			cost[ti] += v.itemCost(it, tp.Class)
			if ti != 0 {
				cost[ti] += v.pf.CommCostNs(int(float64(node.InBytes)*it.ChunkFrac)) * float64(node.TotalCount)
				cost[ti] += v.pf.CommCostNs(int(float64(node.OutBytes)*it.ChunkFrac)) * float64(node.TotalCount)
			}
		}
		if ti != 0 {
			cost[ti] += spawnNs
		}
	}
	if math.Abs(fracSum-1) > 1e-6 {
		v.add(node, sol, "structure",
			fmt.Sprintf("chunk fractions cover %.6f of the iteration space, want 1", fracSum))
	}
	exec := 0.0
	for _, c := range cost {
		if c > exec {
			exec = c
		}
	}
	v.checkClaimed(sol, exec)
	v.procsAndBudget(sol)
}

// procAt reads a processor vector defensively.
func procAt(procs []int, c int) int {
	if c < 0 || c >= len(procs) {
		return 0
	}
	return procs[c]
}
