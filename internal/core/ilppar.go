package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/htg"
	"repro/internal/ilp"
	"repro/internal/obs"
)

// solveMeta identifies one region solve for telemetry.
type solveMeta struct {
	region string // HTG node label of the region
	model  string // "tasks", "chunks" or "pipeline"
	class  int    // main-task class under consideration
	tasks  int    // task-count bound of this sweep step
}

// regionLabel names a region for solve records and spans.
func regionLabel(rs *regionSpec) string {
	if rs.node != nil && rs.node.Label != "" {
		return rs.node.Label
	}
	return "<region>"
}

// ilpParHetero builds and solves the heterogeneous partitioning-and-mapping
// ILP of Section IV for one region: it maps items to at most maxTasks newly
// extracted tasks (Eq. 1-2), selects one parallel solution candidate per
// item (Eq. 3-4), tracks predecessor relations (Eq. 5-7) over the
// topologically ordered items (Eq. 10), prices tasks per mapped processor
// class (Eq. 8-9), maps tasks to classes respecting per-class core budgets
// (Eq. 12-16) and ties candidate classes to task classes (Eq. 17-18). The
// objective minimizes the critical path to the communication-out node
// (Eq. 11).
//
// An explicit improvement bound (exectime strictly below sequential
// execution on seqPC) is added so that unprofitable regions come back
// infeasible quickly instead of crawling to a useless optimum.
//
// seqPC is the class of the main task (task 0). Returns nil when no
// solution beats sequential execution on seqPC; otherwise the portable
// index assignment (assembleFromAssignment builds the Solution).
func (p *Parallelizer) ilpParHetero(rs *regionSpec, seqPC, maxTasks int) *regionAssignment {
	nItems := len(rs.items)
	nClasses := len(p.pf.Classes)
	T := maxTasks
	if T > p.pf.NumCores() {
		T = p.pf.NumCores()
	}
	if T < 2 || nItems < 2 {
		return nil
	}

	// Sequential reference: all items on seqPC in the main task, no task
	// creation, no communication.
	seqTime := 0.0
	for _, it := range rs.items {
		if s := seqCandOn(it, seqPC); s != nil {
			seqTime += s.TimeNs
		}
	}
	spawnOverheadNs := rs.spawnCount * p.pf.TaskCreateNs
	if spawnOverheadNs >= seqTime {
		return nil // creating even one task already costs more than running
	}

	// Per-item worst-case candidate cost (tight big-M for Eq. 8) and the
	// global path bound (big-M for Eq. 9).
	worstOf := make([]float64, nItems)
	pathM := 1.0
	for n, it := range rs.items {
		for c := range it.cands {
			for _, s := range it.cands[c] {
				if s.TimeNs > worstOf[n] {
					worstOf[n] = s.TimeNs
				}
			}
		}
		pathM += worstOf[n] + it.inCommNs + it.outCommNs
	}
	for _, e := range rs.edges {
		pathM += e.commNs
	}
	pathM += spawnOverheadNs * float64(T)

	m := ilp.NewModel()

	// --- Decision variables ---

	// x[n][t]: item n assigned to task t (Eq. 1).
	x := make([][]ilp.VarID, nItems)
	for n := range x {
		x[n] = make([]ilp.VarID, T)
		for t := 0; t < T; t++ {
			x[n][t] = m.AddBinary(fmt.Sprintf("x_n%d_t%d", n, t), 0)
			m.SetPriority(x[n][t], 3)
		}
	}
	// p[n][c][s]: candidate selection (Eq. 3).
	pv := make([][][]ilp.VarID, nItems)
	for n, it := range rs.items {
		pv[n] = make([][]ilp.VarID, nClasses)
		for c := 0; c < nClasses; c++ {
			pv[n][c] = make([]ilp.VarID, len(it.cands[c]))
			for s := range it.cands[c] {
				pv[n][c][s] = m.AddBinary(fmt.Sprintf("p_n%d_c%d_s%d", n, c, s), 0)
			}
		}
	}
	// map[t][c]: task-to-class mapping (Eq. 12).
	mp := make([][]ilp.VarID, T)
	for t := 0; t < T; t++ {
		mp[t] = make([]ilp.VarID, nClasses)
		for c := 0; c < nClasses; c++ {
			mp[t][c] = m.AddBinary(fmt.Sprintf("map_t%d_c%d", t, c), 0)
			m.SetPriority(mp[t][c], 3)
		}
	}
	// used[t]: task actually holds items; prices TCO for extra tasks.
	used := make([]ilp.VarID, T)
	for t := 0; t < T; t++ {
		used[t] = m.AddBinary(fmt.Sprintf("used_t%d", t), 0)
		m.SetPriority(used[t], 2)
	}
	// pred[t][u] for t < u (Eq. 5), only when the region has edges at all.
	var pred [][]ilp.VarID
	if len(rs.edges) > 0 {
		pred = make([][]ilp.VarID, T)
		for t := 0; t < T; t++ {
			pred[t] = make([]ilp.VarID, T)
			for u := t + 1; u < T; u++ {
				pred[t][u] = m.AddBinary(fmt.Sprintf("pred_t%d_u%d", t, u), 0)
			}
		}
	}
	// contrib[n][t]: big-M lowering of (x AND p) * COSTS in Eq. 8.
	contrib := make([][]ilp.VarID, nItems)
	for n := range contrib {
		contrib[n] = make([]ilp.VarID, T)
		for t := 0; t < T; t++ {
			contrib[n][t] = m.AddVar(fmt.Sprintf("ctr_n%d_t%d", n, t), 0, math.Inf(1), 0)
		}
	}
	// Per-task cost, accumulated path cost, outgoing communication.
	cost := make([]ilp.VarID, T)
	accum := make([]ilp.VarID, T)
	comm := make([]ilp.VarID, T)
	for t := 0; t < T; t++ {
		cost[t] = m.AddVar(fmt.Sprintf("cost_t%d", t), 0, math.Inf(1), 0)
		accum[t] = m.AddVar(fmt.Sprintf("accum_t%d", t), 0, math.Inf(1), 0)
		comm[t] = m.AddVar(fmt.Sprintf("comm_t%d", t), 0, math.Inf(1), 0)
	}
	// cross[e][t]: edge e leaves task t.
	cross := make([][]ilp.VarID, len(rs.edges))
	for e, edge := range rs.edges {
		if edge.commNs <= 0 {
			continue
		}
		cross[e] = make([]ilp.VarID, T)
		for t := 0; t < T; t++ {
			cross[e][t] = m.AddVar(fmt.Sprintf("cross_e%d_t%d", e, t), 0, 1, 0)
		}
	}
	// procsused[t][c]: inner processors of chosen hierarchical candidates
	// (Eq. 14). Created lazily only when some candidate needs extras.
	needProcs := false
	for _, it := range rs.items {
		for c := range it.cands {
			for _, s := range it.cands[c] {
				for _, e := range s.ExtraProcs() {
					if e > 0 {
						needProcs = true
					}
				}
			}
		}
	}
	var procsused [][]ilp.VarID
	if needProcs {
		procsused = make([][]ilp.VarID, T)
		for t := 0; t < T; t++ {
			procsused[t] = make([]ilp.VarID, nClasses)
			for c := 0; c < nClasses; c++ {
				procsused[t][c] = m.AddVar(fmt.Sprintf("pu_t%d_c%d", t, c), 0, math.Inf(1), 0)
			}
		}
	}
	// w[t][c] = and(map, used) for the core budget (Eq. 16).
	w := make([][]ilp.VarID, T)
	for t := 0; t < T; t++ {
		w[t] = make([]ilp.VarID, nClasses)
		for c := 0; c < nClasses; c++ {
			w[t][c] = m.AddVar(fmt.Sprintf("w_t%d_c%d", t, c), 0, 1, 0)
		}
	}
	// Objective: exectime (Eq. 11), bounded above by the sequential
	// reference so only genuine improvements are feasible.
	exectime := m.AddVar("exectime", 0, seqTime*0.999, 1)

	// --- Constraints ---

	// Eq. 2: each item in exactly one task.
	for n := 0; n < nItems; n++ {
		terms := make([]ilp.Term, T)
		for t := 0; t < T; t++ {
			terms[t] = ilp.Term{Var: x[n][t], Coeff: 1}
		}
		m.AddCons(fmt.Sprintf("eq2_n%d", n), terms, ilp.EQ, 1)
	}
	// Eq. 4: exactly one candidate per item.
	for n, it := range rs.items {
		var terms []ilp.Term
		for c := 0; c < nClasses; c++ {
			for s := range it.cands[c] {
				terms = append(terms, ilp.Term{Var: pv[n][c][s], Coeff: 1})
			}
		}
		m.AddCons(fmt.Sprintf("eq4_n%d", n), terms, ilp.EQ, 1)
	}
	// Eq. 13: each task mapped to exactly one class; main task to seqPC.
	for t := 0; t < T; t++ {
		terms := make([]ilp.Term, nClasses)
		for c := 0; c < nClasses; c++ {
			terms[c] = ilp.Term{Var: mp[t][c], Coeff: 1}
		}
		m.AddCons(fmt.Sprintf("eq13_t%d", t), terms, ilp.EQ, 1)
	}
	m.AddCons("main_class", []ilp.Term{{Var: mp[0][seqPC], Coeff: 1}}, ilp.EQ, 1)
	m.AddCons("main_used", []ilp.Term{{Var: used[0], Coeff: 1}}, ilp.EQ, 1)

	// Eq. 10: monotone task ids along the topological item order.
	for n := 0; n+1 < nItems; n++ {
		var terms []ilp.Term
		for t := 1; t < T; t++ {
			terms = append(terms, ilp.Term{Var: x[n+1][t], Coeff: float64(t)})
			terms = append(terms, ilp.Term{Var: x[n][t], Coeff: -float64(t)})
		}
		m.AddCons(fmt.Sprintf("eq10_n%d", n), terms, ilp.GE, 0)
	}
	// used[t] >= x[n][t]; tasks occupy a prefix.
	for t := 0; t < T; t++ {
		for n := 0; n < nItems; n++ {
			m.AddCons(fmt.Sprintf("used_t%d_n%d", t, n),
				[]ilp.Term{{Var: used[t], Coeff: 1}, {Var: x[n][t], Coeff: -1}}, ilp.GE, 0)
		}
		if t+1 < T {
			m.AddCons(fmt.Sprintf("used_mono_t%d", t),
				[]ilp.Term{{Var: used[t], Coeff: 1}, {Var: used[t+1], Coeff: -1}}, ilp.GE, 0)
		}
	}
	// Eq. 6/7: pred[t][u] >= x[n][t] + x[o][u] - 1 for every edge n->o.
	for ei, e := range rs.edges {
		for t := 0; t < T; t++ {
			for u := t + 1; u < T; u++ {
				m.AddCons(fmt.Sprintf("eq6_e%d_t%d_u%d", ei, t, u),
					[]ilp.Term{
						{Var: pred[t][u], Coeff: 1},
						{Var: x[e.from][t], Coeff: -1},
						{Var: x[e.to][u], Coeff: -1},
					}, ilp.GE, -1)
			}
		}
	}
	// Eq. 17/18 (direct form): if item n is in task t and t is on class c,
	// a class-c candidate must be selected. Together with Eq. 4 this pins
	// the candidate class exactly.
	for n, it := range rs.items {
		for t := 0; t < T; t++ {
			for c := 0; c < nClasses; c++ {
				terms := []ilp.Term{
					{Var: x[n][t], Coeff: -1},
					{Var: mp[t][c], Coeff: -1},
				}
				for s := range it.cands[c] {
					terms = append(terms, ilp.Term{Var: pv[n][c][s], Coeff: 1})
				}
				m.AddCons(fmt.Sprintf("eq18_n%d_t%d_c%d", n, t, c), terms, ilp.GE, -1)
			}
		}
	}
	// Eq. 8 (linearized, tight M): contrib[n][t] >= selCost(n) - M_n(1-x).
	for n, it := range rs.items {
		for t := 0; t < T; t++ {
			terms := []ilp.Term{
				{Var: contrib[n][t], Coeff: 1},
				{Var: x[n][t], Coeff: -worstOf[n]},
			}
			for c := 0; c < nClasses; c++ {
				for s, cand := range it.cands[c] {
					terms = append(terms, ilp.Term{Var: pv[n][c][s], Coeff: -cand.TimeNs})
				}
			}
			m.AddCons(fmt.Sprintf("eq8_n%d_t%d", n, t), terms, ilp.GE, -worstOf[n])
		}
	}
	// cost[t] >= sum_n contrib[n][t] (+ TCO and in-comm for extra tasks).
	for t := 0; t < T; t++ {
		terms := []ilp.Term{{Var: cost[t], Coeff: 1}}
		if t != 0 {
			terms = append(terms, ilp.Term{Var: used[t], Coeff: -spawnOverheadNs})
		}
		for n := 0; n < nItems; n++ {
			terms = append(terms, ilp.Term{Var: contrib[n][t], Coeff: -1})
			if t != 0 && rs.items[n].inCommNs > 0 {
				terms = append(terms, ilp.Term{Var: x[n][t], Coeff: -rs.items[n].inCommNs})
			}
		}
		m.AddCons(fmt.Sprintf("cost_t%d", t), terms, ilp.GE, 0)
	}
	// Outgoing communication per task.
	for t := 0; t < T; t++ {
		terms := []ilp.Term{{Var: comm[t], Coeff: 1}}
		for ei, e := range rs.edges {
			if e.commNs <= 0 {
				continue
			}
			m.AddCons(fmt.Sprintf("cross_e%d_t%d", ei, t),
				[]ilp.Term{
					{Var: cross[ei][t], Coeff: 1},
					{Var: x[e.from][t], Coeff: -1},
					{Var: x[e.to][t], Coeff: 1},
				}, ilp.GE, 0)
			terms = append(terms, ilp.Term{Var: cross[ei][t], Coeff: -e.commNs})
		}
		m.AddCons(fmt.Sprintf("comm_t%d", t), terms, ilp.GE, 0)
	}
	// Eq. 9: accumulated path costs (chains only exist with edges).
	for t := 0; t < T; t++ {
		m.AddCons(fmt.Sprintf("eq9base_t%d", t),
			[]ilp.Term{{Var: accum[t], Coeff: 1}, {Var: cost[t], Coeff: -1}}, ilp.GE, 0)
		if pred == nil {
			continue
		}
		for u := 0; u < t; u++ {
			m.AddCons(fmt.Sprintf("eq9_t%d_u%d", t, u),
				[]ilp.Term{
					{Var: accum[t], Coeff: 1},
					{Var: cost[t], Coeff: -1},
					{Var: accum[u], Coeff: -1},
					{Var: comm[u], Coeff: -1},
					{Var: pred[u][t], Coeff: -pathM},
				}, ilp.GE, -pathM)
		}
	}
	// Eq. 14: procsused[t][c] >= EXTRA[s][c] * (p[n][cc][s] AND x[n][t]).
	if needProcs {
		for n, it := range rs.items {
			for cc := 0; cc < nClasses; cc++ {
				for s, cand := range it.cands[cc] {
					extra := cand.ExtraProcs()
					for c := 0; c < nClasses; c++ {
						if extra[c] <= 0 {
							continue
						}
						for t := 0; t < T; t++ {
							m.AddCons(fmt.Sprintf("eq14_n%d_c%d_s%d_t%d_pc%d", n, cc, s, t, c),
								[]ilp.Term{
									{Var: procsused[t][c], Coeff: 1},
									{Var: pv[n][cc][s], Coeff: -float64(extra[c])},
									{Var: x[n][t], Coeff: -float64(extra[c])},
								}, ilp.GE, -float64(extra[c]))
						}
					}
				}
			}
		}
	}
	// Eq. 15/16: per-class budget; w = and(map, used).
	for t := 0; t < T; t++ {
		for c := 0; c < nClasses; c++ {
			m.AddCons(fmt.Sprintf("w_t%d_c%d", t, c),
				[]ilp.Term{
					{Var: w[t][c], Coeff: 1},
					{Var: mp[t][c], Coeff: -1},
					{Var: used[t], Coeff: -1},
				}, ilp.GE, -1)
		}
	}
	for c := 0; c < nClasses; c++ {
		var terms []ilp.Term
		for t := 0; t < T; t++ {
			terms = append(terms, ilp.Term{Var: w[t][c], Coeff: 1})
			if needProcs {
				terms = append(terms, ilp.Term{Var: procsused[t][c], Coeff: 1})
			}
		}
		m.AddCons(fmt.Sprintf("eq16_c%d", c), terms, ilp.LE, float64(p.pf.Classes[c].Count))
	}
	// Strengthening cuts (valid inequalities; they leave the integer
	// optimum unchanged but give the LP relaxation a near-ideal bound so
	// branch-and-bound prunes effectively):
	//  (1) class-work: all work selected on class c must fit on that
	//      class's Count processors within the makespan, since at most
	//      Count tasks map to c (Eq. 16) and every task fits in exectime.
	//  (2) work conservation: the task costs jointly cover all selected
	//      item costs.
	for c := 0; c < nClasses; c++ {
		terms := []ilp.Term{{Var: exectime, Coeff: float64(p.pf.Classes[c].Count)}}
		for n, it := range rs.items {
			for s, cand := range it.cands[c] {
				terms = append(terms, ilp.Term{Var: pv[n][c][s], Coeff: -cand.TimeNs})
			}
		}
		m.AddCons(fmt.Sprintf("cut_classwork_c%d", c), terms, ilp.GE, 0)
	}
	{
		var terms []ilp.Term
		for t := 0; t < T; t++ {
			terms = append(terms, ilp.Term{Var: cost[t], Coeff: 1})
		}
		for n, it := range rs.items {
			for c := 0; c < nClasses; c++ {
				for s, cand := range it.cands[c] {
					terms = append(terms, ilp.Term{Var: pv[n][c][s], Coeff: -cand.TimeNs})
				}
			}
			_ = n
		}
		m.AddCons("cut_conservation", terms, ilp.GE, 0)
	}

	// Eq. 11: exectime >= accum[t] + out-comm of items in non-main tasks.
	for t := 0; t < T; t++ {
		terms := []ilp.Term{{Var: exectime, Coeff: 1}, {Var: accum[t], Coeff: -1}}
		if t != 0 {
			for n := 0; n < nItems; n++ {
				if rs.items[n].outCommNs > 0 {
					terms = append(terms, ilp.Term{Var: x[n][t], Coeff: -rs.items[n].outCommNs})
				}
			}
		}
		m.AddCons(fmt.Sprintf("eq11_t%d", t), terms, ilp.GE, 0)
	}

	// --- Solve ---
	incumbent := mainTaskIncumbent(m, rs, seqPC, seqTime, ivars{
		x: x, pv: pv, mp: mp, used: used,
		contrib: contrib, cost: cost, accum: accum,
		procsused: procsused, w: w, exectime: exectime,
	})
	res := p.solveWithIncumbent(m, incumbent,
		solveMeta{region: regionLabel(rs), model: "tasks", class: seqPC, tasks: T})
	if res == nil {
		return nil
	}
	return p.extractHetero(rs, res.X, x, pv, mp, seqPC, res.Obj)
}

// ivars bundles the variable handles the incumbent builder must fill.
type ivars struct {
	x         [][]ilp.VarID
	pv        [][][]ilp.VarID
	mp        [][]ilp.VarID
	used      []ilp.VarID
	contrib   [][]ilp.VarID
	cost      []ilp.VarID
	accum     []ilp.VarID
	procsused [][]ilp.VarID
	w         [][]ilp.VarID
	exectime  ilp.VarID
}

// mainTaskIncumbent constructs the always-feasible fallback assignment:
// every item stays in the main task on seqPC but selects its best
// (possibly hierarchically parallel) class-seqPC candidate. When even that
// plan fails to beat sequential execution, nil is returned and the ILP
// must find parallelism at this level or come back empty.
func mainTaskIncumbent(m *ilp.Model, rs *regionSpec, seqPC int, seqTime float64, v ivars) []float64 {

	X := make([]float64, m.NumVars())
	nClasses := len(v.mp[0])
	T := len(v.mp)
	total := 0.0
	extras := make([]float64, nClasses)
	for n, it := range rs.items {
		X[v.x[n][0]] = 1
		bestS, bestCost := -1, 0.0
		for s, cand := range it.cands[seqPC] {
			if bestS < 0 || cand.TimeNs < bestCost {
				bestS, bestCost = s, cand.TimeNs
			}
		}
		if bestS < 0 {
			return nil
		}
		X[v.pv[n][seqPC][bestS]] = 1
		X[v.contrib[n][0]] = bestCost
		total += bestCost
		for c, e := range it.cands[seqPC][bestS].ExtraProcs() {
			if float64(e) > extras[c] {
				extras[c] = float64(e)
			}
		}
	}
	if total >= seqTime*0.999 {
		return nil // no inner parallelism: not an improvement
	}
	for t := 0; t < T; t++ {
		X[v.mp[t][seqPC]] = 1
	}
	X[v.used[0]] = 1
	X[v.cost[0]] = total
	X[v.accum[0]] = total
	X[v.exectime] = total
	X[v.w[0][seqPC]] = 1
	if v.procsused != nil {
		for c := 0; c < nClasses; c++ {
			X[v.procsused[0][c]] = extras[c]
		}
	}
	return X
}

// solve runs the MILP and records statistics.
func (p *Parallelizer) solve(m *ilp.Model, meta solveMeta) *ilp.Result {
	return p.solveWithIncumbent(m, nil, meta)
}

// solveWithIncumbent additionally seeds the search with a known feasible
// assignment (ignored when nil or infeasible). Every solve is recorded
// as a SolveRecord; a configured tracer gets a span, a registry the
// solver counters, and the solver's incumbent hook feeds the registry
// and the event log.
func (p *Parallelizer) solveWithIncumbent(m *ilp.Model, incumbent []float64, meta solveMeta) *ilp.Result {
	span := p.cfg.Tracer.Start("ilp-solve",
		obs.String("region", meta.region),
		obs.String("model", meta.model),
		obs.Int("class", meta.class),
		obs.Int("tasks", meta.tasks),
		obs.Int("vars", m.NumVars()),
		obs.Int("cons", m.NumCons()))
	start := time.Now() //repolint:allow timenow (solve-time telemetry only)
	opt := ilp.Options{
		MaxNodes:  p.cfg.MaxILPNodes,
		RelGap:    p.cfg.ILPRelGap,
		Incumbent: incumbent,
	}
	if p.cfg.ILPTimeout > 0 {
		opt.Deadline = start.Add(p.cfg.ILPTimeout)
	}
	if reg, elog := p.cfg.Metrics, p.cfg.Events; reg != nil || elog != nil {
		opt.Progress = func(ev ilp.ProgressEvent) {
			reg.Counter("ilp.incumbents").Inc()
			reg.Gauge("ilp.incumbent.obj").Set(ev.Obj)
			elog.Emit("ilp-incumbent", meta.region, map[string]any{
				"model": meta.model,
				"obj":   ev.Obj,
				"nodes": ev.Nodes,
			})
		}
	}
	res := ilp.Solve(m, opt)
	dur := time.Since(start)
	p.recordSolve(SolveRecord{
		Region:     meta.region,
		Model:      meta.model,
		Class:      meta.class,
		MaxTasks:   meta.tasks,
		Vars:       m.NumVars(),
		Cons:       m.NumCons(),
		Status:     res.Status.String(),
		Nodes:      res.Nodes,
		LPIters:    res.LPIters,
		Incumbents: res.Incumbents,
		Gap:        res.Gap,
		WarmStarts: res.WarmStarts,
		WarmHits:   res.WarmHits,
		TimedOut:   res.TimedOut,
		NodeCapped: res.NodeCapped,
		Time:       dur,
	})
	if reg := p.cfg.Metrics; reg != nil {
		reg.Counter("ilp.solves").Inc()
		reg.Counter("ilp.bb_nodes").Add(int64(res.Nodes))
		reg.Counter("ilp.lp_iters").Add(int64(res.LPIters))
		reg.Gauge("ilp.gap.max").Max(res.Gap)
		reg.Gauge("ilp.gap.last").Set(res.Gap)
		reg.Histogram("ilp.solve_time").Observe(dur)
		reg.Counter("ilp.warm_starts").Add(int64(res.WarmStarts))
		reg.Counter("ilp.warm_hits").Add(int64(res.WarmHits))
		if res.TimedOut {
			reg.Counter("ilp.timeouts").Inc()
		}
		if res.NodeCapped {
			reg.Counter("ilp.node_caps").Inc()
		}
	}
	span.SetAttr(
		obs.String("status", res.Status.String()),
		obs.Int("nodes", res.Nodes),
		obs.Int("lp_iters", res.LPIters),
		obs.Float("gap", res.Gap),
		obs.Bool("timed_out", res.TimedOut),
		obs.Bool("node_capped", res.NodeCapped))
	span.End()
	if res.Status != ilp.StatusOptimal && res.Status != ilp.StatusFeasible {
		return nil
	}
	return &res
}

// extractHetero converts an ILP point into a portable index assignment.
func (p *Parallelizer) extractHetero(rs *regionSpec, X []float64,
	x [][]ilp.VarID, pv [][][]ilp.VarID, mp [][]ilp.VarID,
	seqPC int, obj float64) *regionAssignment {

	nClasses := len(p.pf.Classes)
	T := len(mp)
	on := func(id ilp.VarID) bool { return X[id] > 0.5 }

	a := &regionAssignment{
		TaskOf:    make([]int, len(rs.items)),
		CandClass: make([]int, len(rs.items)),
		CandSlot:  make([]int, len(rs.items)),
		ClassOf:   make([]int, T),
		Obj:       obj,
	}
	for n, it := range rs.items {
		a.TaskOf[n] = 0
		for t := 0; t < T; t++ {
			if on(x[n][t]) {
				a.TaskOf[n] = t
			}
		}
		// Slot -1 = the sequential candidate on seqPC (the extraction
		// fallback when the point selects no candidate binary).
		a.CandClass[n], a.CandSlot[n] = seqPC, -1
		for c := 0; c < nClasses; c++ {
			for s := range it.cands[c] {
				if on(pv[n][c][s]) {
					a.CandClass[n], a.CandSlot[n] = c, s
				}
			}
		}
	}
	for t := 0; t < T; t++ {
		a.ClassOf[t] = seqPC
		for c := 0; c < nClasses; c++ {
			if on(mp[t][c]) {
				a.ClassOf[t] = c
			}
		}
	}
	return a
}

// assembleSolution builds the Solution object from decoded assignments.
func (p *Parallelizer) assembleSolution(rs *regionSpec, taskOf []int,
	chosen []*Solution, classOf []int, seqPC int, obj float64) *Solution {

	nClasses := len(p.pf.Classes)
	T := len(classOf)
	sol := &Solution{
		Node:      rs.node,
		Kind:      rs.kind,
		MainClass: seqPC,
		TimeNs:    obj,
		ProcsUsed: make([]int, nClasses),
		Chosen:    map[*htg.Node]*Solution{},
	}
	tasks := make([]*TaskPlan, T)
	for t := 0; t < T; t++ {
		tasks[t] = &TaskPlan{Class: classOf[t]}
	}
	for n, it := range rs.items {
		t := taskOf[n]
		addItemPlans(tasks[t], it, chosen[n])
		if it.node != nil && it.chunkFrac == 0 && chosen[n] != nil {
			sol.Chosen[it.node] = chosen[n]
		}
	}
	// Drop empty non-main tasks.
	var kept []*TaskPlan
	for t, tp := range tasks {
		if t == 0 || len(tp.Items) > 0 {
			kept = append(kept, tp)
		}
	}
	sol.Tasks = kept
	sol.NumTasks = len(kept)
	// Processor accounting: each kept task's own unit plus the maximum
	// extra units its items' chosen solutions require concurrently.
	for _, tp := range kept {
		sol.ProcsUsed[tp.Class]++
		extraMax := make([]int, nClasses)
		for _, itp := range tp.Items {
			if itp.Sub == nil {
				continue
			}
			ex := itp.Sub.ExtraProcs()
			for c := range ex {
				if ex[c] > extraMax[c] {
					extraMax[c] = ex[c]
				}
			}
		}
		for c := range extraMax {
			sol.ProcsUsed[c] += extraMax[c]
		}
	}
	if sol.NumTasks <= 1 {
		// Only degenerate when no parallelism survives anywhere: a single
		// task whose items carry parallel inner candidates is a perfectly
		// good solution (all concurrency lives deeper in the hierarchy).
		inner := false
		for _, tp := range sol.Tasks {
			for _, it := range tp.Items {
				if it.Sub != nil && it.Sub.NumTasks > 1 {
					inner = true
				}
			}
		}
		if !inner {
			return nil
		}
	}
	return sol
}

// addItemPlans appends the plans for one region item (expanding merged
// super-items back into their constituents).
func addItemPlans(tp *TaskPlan, it *regionItem, sub *Solution) {
	if sub != nil && len(sub.merged) > 0 {
		for _, orig := range sub.merged {
			origSub := seqCandOn(orig, sub.MainClass)
			addItemPlans(tp, orig, origSub)
		}
		return
	}
	plan := &ItemPlan{Child: it.node, Sub: sub, ChunkFrac: it.chunkFrac}
	tp.Items = append(tp.Items, plan)
}
