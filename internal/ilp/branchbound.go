package ilp

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Status is the outcome of a MILP solve.
type Status int

// MILP outcomes.
const (
	StatusOptimal    Status = iota // proven optimal
	StatusFeasible                 // incumbent found, search truncated
	StatusInfeasible               // no integral feasible point exists
	StatusUnbounded
	StatusNoSolution // search truncated before any incumbent was found
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusNoSolution:
		return "no-solution"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// ProgressEvent is one incumbent improvement reported to
// Options.Progress.
type ProgressEvent struct {
	// Nodes and LPIters are the exploration counters at event time.
	Nodes   int
	LPIters int
	// Obj is the incumbent objective. The gap is known only when the
	// search ends (Result.Gap).
	Obj float64
}

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes caps explored B&B nodes (0 = default 200000).
	MaxNodes int
	// Deadline aborts the search when exceeded (zero = none). On abort the
	// best incumbent is returned with StatusFeasible.
	Deadline time.Time
	// Incumbent optionally provides a known feasible point to prune with.
	Incumbent []float64
	// RelGap terminates the search once the relative optimality gap of the
	// incumbent drops to or below this value (0 = prove optimality).
	RelGap float64
	// Progress, when non-nil, receives one event per incumbent
	// improvement. The hook runs inline on the solve loop and must be
	// cheap; a nil hook costs a single pointer test (nothing is allocated
	// on the hot path).
	Progress func(ProgressEvent)
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	X      []float64
	Obj    float64
	// Nodes is the number of B&B nodes explored; LPIters the total simplex
	// iterations across relaxations.
	Nodes   int
	LPIters int
	// LPItersRoot, LPItersDive and LPItersSearch split LPIters across the
	// solve phases: root relaxation, the depth-first incumbent dive,
	// and the best-first search.
	LPItersRoot   int
	LPItersDive   int
	LPItersSearch int
	// WarmStarts counts node relaxations attempted from the parent basis;
	// WarmHits those that succeeded without falling back to a cold solve.
	WarmStarts int
	WarmHits   int
	// Gap is the final relative optimality gap: 0 when proven optimal,
	// otherwise recomputed from the best remaining frontier bound on
	// every truncated exit (it is only meaningful once an incumbent
	// exists).
	Gap float64
	// Incumbents counts integral improvements found during the search
	// (seeded Options.Incumbent points are not counted).
	Incumbents int
	// TimedOut and NodeCapped report why a truncated search stopped:
	// the Options.Deadline passed or the MaxNodes budget ran out.
	TimedOut   bool
	NodeCapped bool
}

// bbNode is one open branch-and-bound subproblem. The bound slices and
// the parent basis are shared, never mutated.
type bbNode struct {
	lo, hi []float64
	bound  float64 // LP relaxation value (lower bound for minimization)
	depth  int
	seq    int64  // creation order: the final deterministic tie-break
	prio   uint64 // hashed tie-break among equal bounds
	basis  []int32
	stat   []int8
}

type nodeHeap []*bbNode

func (h nodeHeap) Len() int      { return len(h) }
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth // deeper first among equal bounds
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h *nodeHeap) Push(x any) { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// mix64 is splitmix64: the tie-break hash of a node's sequence number.
func mix64(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// noteIncumbent records an integral improvement and fires the progress
// hook when one is installed.
func noteIncumbent(opt *Options, res *Result) {
	res.Incumbents++
	if opt.Progress != nil {
		opt.Progress(ProgressEvent{
			Nodes:   res.Nodes,
			LPIters: res.LPIters,
			Obj:     res.Obj,
		})
	}
}

// nodeIterCap bounds the simplex iterations of one node relaxation.
// Node solves are disposable — an IterLimit node is pruned and its bound
// folded into the final gap — so a modest deterministic budget stops
// degenerate or infeasible relaxations from grinding through the full
// maxIters allowance. Typical warm-started nodes use a few dozen
// iterations; the cap only bites on pathological ones.
const nodeIterCap = 2000

// searcher carries the per-solve state: the compiled problem, the node
// relaxation solver and the node sequence counter.
type searcher struct {
	mod *Model
	p   *prob
	opt Options
	lp  *lpSolver
	seq int64
	// prunedBound is the minimum known lower bound among subtrees pruned
	// by the node iteration cap (not by infeasibility or cutoff). Any
	// optimality or infeasibility claim must account for it.
	prunedBound float64
}

func (sc *searcher) newNode(lo, hi []float64, bound float64, depth int, basis []int32, stat []int8) *bbNode {
	sc.seq++
	return &bbNode{
		lo: lo, hi: hi, bound: bound, depth: depth,
		seq:   sc.seq,
		prio:  mix64(uint64(sc.seq)),
		basis: basis, stat: stat,
	}
}

// nodeLP is the outcome of one node relaxation.
type nodeLP struct {
	res     LPResult
	basis   []int32
	stat    []int8
	warm    bool
	warmHit bool
}

// solveNode solves one node's relaxation, warm-starting from the parent
// basis when available. cutoff is the incumbent objective: the dual
// simplex abandons the node as soon as its rising lower bound crosses it.
func (sc *searcher) solveNode(nd *bbNode, cutoff float64) nodeLP {
	s := sc.lp
	s.setBounds(nd.lo, nd.hi)
	s.deadline = sc.opt.Deadline
	s.iterCap = nodeIterCap
	s.cutoff = cutoff
	s.iters = 0
	out := nodeLP{}
	st := lpFailed
	if nd.basis != nil {
		out.warm = true
		st = s.solveWarm(nd.basis, nd.stat)
	}
	if st == lpFailed {
		st = s.solveCold()
	} else if out.warm {
		out.warmHit = true
	}
	if st == lpFailed {
		st = LPIterLimit
	}
	out.res = s.result(st)
	if st == LPOptimal {
		out.basis, out.stat = s.saveBasis()
	}
	return out
}

// Workspace holds the simplex and basis-factor buffers of a solve and
// hands them to the next one, so a caller that solves many models in
// turn stops reallocating them. The zero value is ready; a Workspace is
// not safe for concurrent use. Results do not depend on what the
// workspace solved before.
type Workspace struct {
	// lp solves the root relaxation and then, rebound so that it starts
	// out like a fresh solver, every node relaxation.
	lp lpSolver
}

// Solve minimizes the model's objective subject to its constraints, bounds
// and integrality requirements.
func Solve(mod *Model, opt Options) Result {
	return new(Workspace).Solve(mod, opt)
}

// Solve is the package-level Solve on the workspace's buffers.
func (ws *Workspace) Solve(mod *Model, opt Options) Result {
	if err := mod.Validate(); err != nil {
		return Result{Status: StatusInfeasible}
	}
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 200000
	}
	res := Result{Status: StatusNoSolution, Obj: math.Inf(1)}
	if opt.Incumbent != nil {
		if err := mod.Feasible(opt.Incumbent, 1e-6); err == nil {
			res.Status = StatusFeasible
			res.X = append([]float64(nil), opt.Incumbent...)
			res.Obj = mod.Objective(opt.Incumbent)
		}
	}

	rootLo, rootHi, ok := mergeBounds(mod, nil, nil)
	if !ok {
		if res.Status == StatusFeasible {
			return res
		}
		res.Status = StatusInfeasible
		return res
	}
	sc := &searcher{mod: mod, p: compile(mod), opt: opt, prunedBound: math.Inf(1)}
	root := &ws.lp
	root.bind(sc.p)
	root.deadline = opt.Deadline
	root.setBounds(rootLo, rootHi)
	st := root.solveCold()
	if st == lpFailed {
		st = LPIterLimit
	}
	rootLP := root.result(st)
	res.LPIters += rootLP.Iters
	res.LPItersRoot += rootLP.Iters
	switch rootLP.Status {
	case LPInfeasible:
		if res.Status == StatusFeasible {
			return res // trust the provided incumbent
		}
		res.Status = StatusInfeasible
		return res
	case LPUnbounded:
		res.Status = StatusUnbounded
		return res
	case LPIterLimit:
		return res
	}
	relGap := func(bound float64) float64 {
		g := (res.Obj - bound) / math.Max(1e-9, math.Abs(res.Obj))
		if g < 0 {
			g = 0
		}
		return g
	}
	if !opt.Deadline.IsZero() && time.Now().After(opt.Deadline) { //repolint:allow timenow (solver deadline check)
		// Out of time before the search even started: report the seeded
		// incumbent (if any) against the root bound.
		res.TimedOut = true
		if res.Status == StatusFeasible {
			res.Gap = relGap(rootLP.Obj)
		}
		return res
	}

	rootBasis, rootStat := root.saveBasis()
	sc.lp = root
	sc.lp.bind(sc.p)

	// Phase 1: depth-first dive until a first incumbent exists. DFS with
	// backtracking reaches integral leaves quickly, unlike pure best-first
	// which can spread across an exponential frontier when the relaxation
	// is symmetric. Each step warm-starts from its parent's basis.
	dfsBudget := opt.MaxNodes / 4
	if dfsBudget < 200 {
		dfsBudget = 200
	}
	if dfsBudget > opt.MaxNodes {
		// Tiny node budgets (design-space sweeps run with MaxNodes ~20)
		// must bound the incumbent dive too, or phase 1 alone costs 200
		// LP solves per ILP regardless of the cap.
		dfsBudget = opt.MaxNodes
	}
	sc.dive(rootLo, rootHi, rootLP, rootBasis, rootStat, &res, dfsBudget)

	// Phase 2: best-first search for optimality (or the requested gap),
	// one node at a time.
	open := &nodeHeap{}
	heap.Init(open)
	if frac := pickBranchVar(mod, rootLP.X); frac < 0 {
		// Integral root: the dive already recorded it (or failed to snap,
		// in which case no better point exists below the root).
		if res.Status == StatusFeasible {
			res.Status = StatusOptimal
			res.Gap = 0
			return res
		}
		if res.Status == StatusNoSolution {
			res.Status = StatusInfeasible
		}
		return res
	}
	sc.branch(open, &bbNode{lo: rootLo, hi: rootHi, depth: 0, basis: rootBasis, stat: rootStat}, rootLP)

	truncated := false
	for open.Len() > 0 {
		if res.Nodes >= opt.MaxNodes {
			truncated = true
			res.NodeCapped = true
			break
		}
		if !opt.Deadline.IsZero() && time.Now().After(opt.Deadline) { //repolint:allow timenow (solver deadline check)
			truncated = true
			res.TimedOut = true
			break
		}
		nd := heap.Pop(open).(*bbNode)
		if nd.bound >= res.Obj-1e-9 {
			continue // pruned by incumbent
		}
		// Nodes pop in bound order and children only weaken bounds, so nd
		// holds the global frontier minimum.
		lb := nd.bound
		if sc.prunedBound < lb {
			lb = sc.prunedBound
		}
		if res.Status == StatusFeasible && relGap(lb) <= opt.RelGap {
			res.Gap = relGap(lb)
			return res
		}
		out := sc.solveNode(nd, res.Obj-1e-9)
		res.Nodes++
		res.LPIters += out.res.Iters
		res.LPItersSearch += out.res.Iters
		if out.warm {
			res.WarmStarts++
			if out.warmHit {
				res.WarmHits++
			}
		}
		if out.res.Status != LPOptimal {
			// Infeasible or cutoff nodes prune soundly; iteration-limited
			// ones surrender their parent bound to the gap.
			if out.res.Status == LPIterLimit && nd.bound < sc.prunedBound {
				sc.prunedBound = nd.bound
			}
			continue
		}
		if out.res.Obj >= res.Obj-1e-9 {
			continue
		}
		if pickBranchVar(mod, out.res.X) < 0 {
			sc.integralLeaf(out.res.X, &res)
			continue
		}
		nd.basis, nd.stat = out.basis, out.stat
		sc.branch(open, nd, out.res)
	}

	// Every exit path recomputes the final gap from the best remaining
	// bound: the frontier minimum and the bounds of iteration-pruned
	// subtrees. An empty frontier with no such prunes proves the
	// incumbent optimal (or the model integrally infeasible).
	remaining := sc.prunedBound
	if open.Len() > 0 && (*open)[0].bound < remaining {
		remaining = (*open)[0].bound
	}
	switch {
	case res.Status == StatusFeasible:
		if !truncated && remaining >= res.Obj-1e-9 {
			res.Status = StatusOptimal
			res.Gap = 0
		} else if remaining >= res.Obj-1e-9 {
			res.Gap = 0
		} else {
			res.Gap = relGap(remaining)
		}
	case res.Status == StatusNoSolution && !truncated &&
		open.Len() == 0 && math.IsInf(sc.prunedBound, 1):
		res.Status = StatusInfeasible
	}
	return res
}

// branch splits nd on the most fractional variable of lp and pushes both
// children, sharing the parent's bound slices and basis.
func (sc *searcher) branch(open *nodeHeap, nd *bbNode, lp LPResult) {
	frac := pickBranchVar(sc.mod, lp.X)
	if frac < 0 {
		return
	}
	v := lp.X[frac]
	floorV := math.Floor(v)
	dnHi := append([]float64(nil), nd.hi...)
	dnHi[frac] = floorV
	upLo := append([]float64(nil), nd.lo...)
	upLo[frac] = floorV + 1
	heap.Push(open, sc.newNode(nd.lo, dnHi, lp.Obj, nd.depth+1, nd.basis, nd.stat))
	heap.Push(open, sc.newNode(upLo, nd.hi, lp.Obj, nd.depth+1, nd.basis, nd.stat))
}

// dive explores depth-first (rounding-guided child first) until it finds
// one integral feasible point or exhausts its LP-solve budget. Every node
// warm-starts from its parent's basis, so a dive of depth d costs d short
// dual-simplex re-solves instead of d cold two-phase solves.
func (sc *searcher) dive(rootLo, rootHi []float64, rootLP LPResult,
	rootBasis []int32, rootStat []int8, res *Result, budget int) {
	if res.Status == StatusFeasible {
		return // caller-provided incumbent suffices
	}
	opt := &sc.opt
	type dfsNode struct {
		nd *bbNode
		// lp, when non-nil, is the already-solved relaxation of this node.
		lp *nodeLP
	}
	rootNode := &bbNode{lo: rootLo, hi: rootHi, bound: rootLP.Obj, basis: rootBasis, stat: rootStat}
	rootOut := nodeLP{res: rootLP, basis: rootBasis, stat: rootStat}
	stack := []dfsNode{{nd: rootNode, lp: &rootOut}}
	for len(stack) > 0 && budget > 0 {
		if !opt.Deadline.IsZero() && time.Now().After(opt.Deadline) { //repolint:allow timenow (solver deadline check)
			return
		}
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := node.lp
		if out == nil {
			budget--
			solved := sc.solveNode(node.nd, res.Obj-1e-9)
			res.LPIters += solved.res.Iters
			res.LPItersDive += solved.res.Iters
			if solved.warm {
				res.WarmStarts++
				if solved.warmHit {
					res.WarmHits++
				}
			}
			out = &solved
		}
		if out.res.Status == LPIterLimit && node.nd.bound < sc.prunedBound {
			sc.prunedBound = node.nd.bound
		}
		if out.res.Status != LPOptimal || out.res.Obj >= res.Obj-1e-9 {
			continue
		}
		frac := pickBranchVar(sc.mod, out.res.X)
		if frac < 0 {
			if sc.integralLeaf(out.res.X, res) {
				return
			}
			continue
		}
		v := out.res.X[frac]
		floorV := math.Floor(v)
		dnHi := append([]float64(nil), node.nd.hi...)
		dnHi[frac] = floorV
		upLo := append([]float64(nil), node.nd.lo...)
		upLo[frac] = floorV + 1
		down := dfsNode{nd: &bbNode{lo: node.nd.lo, hi: dnHi, bound: out.res.Obj, basis: out.basis, stat: out.stat}}
		up := dfsNode{nd: &bbNode{lo: upLo, hi: node.nd.hi, bound: out.res.Obj, basis: out.basis, stat: out.stat}}
		// Push the less likely child first so the rounding-preferred child
		// is explored next (LIFO).
		if v-floorV >= 0.5 {
			stack = append(stack, down, up)
		} else {
			stack = append(stack, up, down)
		}
	}
}

// integralLeaf snaps an integral relaxation point to exact integers and
// makes it the incumbent when it is feasible and improves on res. It
// reports whether the snapped point is feasible.
func (sc *searcher) integralLeaf(x []float64, res *Result) bool {
	x = snap(sc.mod, x)
	if err := sc.mod.Feasible(x, 1e-5); err != nil {
		return false
	}
	if obj := sc.mod.Objective(x); obj < res.Obj {
		res.Obj = obj
		res.X = x
		res.Status = StatusFeasible
		noteIncumbent(&sc.opt, res)
	}
	return true
}

// intTol is the integrality tolerance: an integral variable within it of
// an integer counts as integral.
const intTol = 1e-6

// pickBranchVar returns the fractional integral variable to branch on:
// the most fractional one within the highest priority class that has any
// fractional variable. Returns -1 when the point is integral.
func pickBranchVar(mod *Model, x []float64) int {
	best := -1
	bestDist := intTol
	bestPrio := math.MinInt32
	for i, v := range mod.Vars {
		if v.Kind == Continuous {
			continue
		}
		f := x[i] - math.Floor(x[i])
		dist := math.Min(f, 1-f)
		if dist <= intTol {
			continue
		}
		if v.Priority > bestPrio || (v.Priority == bestPrio && dist > bestDist) {
			best = i
			bestDist = dist
			bestPrio = v.Priority
		}
	}
	return best
}

// snap rounds near-integral entries of integral variables exactly.
func snap(mod *Model, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for i, v := range mod.Vars {
		if v.Kind == Continuous {
			continue
		}
		r := math.Round(out[i])
		if math.Abs(out[i]-r) <= 10*intTol {
			out[i] = r
		}
	}
	return out
}
