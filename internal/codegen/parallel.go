package codegen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/htg"
	"repro/internal/minic"
)

// emitSolution emits the Go realization of a solution tree rooted at a
// region (the main function body or a call region). Task-parallel regions
// become goroutine groups; chunked loop solutions become partitioned
// loops; anything else falls back to sequential emission.
func (g *Generator) emitSolution(sol *core.Solution) error {
	if sol == nil || len(sol.Tasks) == 0 || sol.Kind == core.KindSequential {
		return fmt.Errorf("codegen: emitSolution needs a parallel solution")
	}
	if sol.Kind == core.KindChunked {
		return g.emitChunked(sol)
	}
	// Task-parallel region. Loop nodes use per-iteration fork-join
	// semantics that the static backend does not implement; run them
	// sequentially (the simulator still models them).
	if sol.Node != nil && sol.Node.Kind == htg.KindLoop {
		return g.seqNode(sol.Node)
	}
	if sol.NumTasks <= 1 {
		// All parallelism is inside the items.
		for _, it := range sol.Tasks[0].Items {
			if err := g.emitItem(it); err != nil {
				return err
			}
		}
		return nil
	}
	// Channels synchronize cross-task data-flow edges. Items are in
	// topological order within tasks, so closing/receiving in program
	// order cannot deadlock.
	taskOf := map[*htg.Node]int{}
	for ti, tp := range sol.Tasks {
		for _, it := range tp.Items {
			if it.Child != nil && it.ChunkFrac == 0 {
				taskOf[it.Child] = ti
			}
		}
	}
	type edge struct {
		ch       string
		from, to *htg.Node
	}
	var edges []edge
	for child, ti := range taskOf {
		for _, e := range child.Edges {
			tj, ok := taskOf[e.To]
			if !ok || tj == ti {
				continue
			}
			g.tmp++
			edges = append(edges, edge{ch: fmt.Sprintf("dep%d", g.tmp), from: child, to: e.To})
		}
	}
	g.l("{")
	g.ind++
	for _, e := range edges {
		g.l("%s := make(chan struct{})", e.ch)
	}
	g.l("var regionWG sync.WaitGroup")
	emitTask := func(tp *core.TaskPlan) error {
		for _, it := range tp.Items {
			// Wait for producers in other tasks.
			for _, e := range edges {
				if it.Child != nil && e.to == it.Child {
					g.l("<-%s", e.ch)
				}
			}
			if err := g.emitItem(it); err != nil {
				return err
			}
			for _, e := range edges {
				if it.Child != nil && e.from == it.Child {
					g.l("close(%s)", e.ch)
				}
			}
		}
		return nil
	}
	for ti := 1; ti < len(sol.Tasks); ti++ {
		g.l("regionWG.Add(1)")
		g.l("go func() {")
		g.ind++
		g.l("defer regionWG.Done()")
		if err := emitTask(sol.Tasks[ti]); err != nil {
			return err
		}
		g.ind--
		g.l("}()")
	}
	if err := emitTask(sol.Tasks[0]); err != nil {
		return err
	}
	g.l("regionWG.Wait()")
	g.ind--
	g.l("}")
	return nil
}

// emitItem emits one work unit of a task.
func (g *Generator) emitItem(it *core.ItemPlan) error {
	if it.ChunkFrac > 0 {
		return fmt.Errorf("codegen: stray chunk item outside a chunked solution")
	}
	if it.Sub != nil && it.Sub.Kind != core.KindSequential && len(it.Sub.Tasks) > 0 {
		switch it.Sub.Kind {
		case core.KindChunked:
			return g.emitChunked(it.Sub)
		case core.KindTaskParallel:
			if it.Sub.Node != nil && it.Sub.Node.Kind != htg.KindLoop {
				return g.emitSolution(it.Sub)
			}
		}
		// Loop-level fork-join: sequential fallback.
	}
	return g.seqNode(it.Child)
}

// seqNode emits the node's statement sequentially.
func (g *Generator) seqNode(n *htg.Node) error {
	if n == nil || n.Stmt == nil {
		return nil
	}
	return g.stmt(n.Stmt)
}

// emitChunked partitions a DOALL loop's iteration space across goroutines
// according to the chunk counts of the solution's tasks.
func (g *Generator) emitChunked(sol *core.Solution) error {
	loop, ok := sol.Node.Stmt.(*minic.ForStmt)
	if !ok || sol.Node.Loop == nil || !sol.Node.Loop.Parallel {
		return g.seqNode(sol.Node)
	}
	info := sol.Node.Loop
	lo, hi, ok := g.loopBounds(loop, info)
	if !ok || info.Step != 1 {
		return g.seqNode(sol.Node) // non-canonical loop: sequential fallback
	}
	// Fractions per task.
	fracs := make([]float64, len(sol.Tasks))
	for ti, tp := range sol.Tasks {
		for _, it := range tp.Items {
			fracs[ti] += it.ChunkFrac
		}
	}
	g.tmp++
	id := g.tmp
	g.l("{")
	g.ind++
	g.l("lo%d := %s", id, lo)
	g.l("hi%d := %s", id, hi)
	g.l("span%d := hi%d - lo%d", id, id, id)
	g.l("if span%d < 0 { span%d = 0 }", id, id)
	g.l("var chunkWG%d sync.WaitGroup", id)
	// Cumulative boundaries: task ti covers [cum, cum+frac). The extra
	// tasks are spawned first; the main task's share runs inline.
	bounds := make([][2]float64, len(sol.Tasks))
	cum := 0.0
	for ti := range sol.Tasks {
		from := cum
		cum += fracs[ti]
		to := cum
		if ti == len(sol.Tasks)-1 {
			to = 1.0 // absorb rounding
		}
		bounds[ti] = [2]float64{from, to}
	}
	for ti := 1; ti < len(sol.Tasks); ti++ {
		g.l("chunkWG%d.Add(1)", id)
		g.l("go func() {")
		g.ind++
		g.l("defer chunkWG%d.Done()", id)
		if err := g.chunkBody(loop, info, id, bounds[ti][0], bounds[ti][1]); err != nil {
			return err
		}
		g.ind--
		g.l("}()")
	}
	if err := g.chunkBody(loop, info, id, bounds[0][0], bounds[0][1]); err != nil {
		return err
	}
	g.l("chunkWG%d.Wait()", id)
	g.ind--
	g.l("}")
	return nil
}

// chunkBody emits the loop body over the sub-range [from, to) of the
// iteration space, with reduction accumulators privatized and merged
// under the global reduction mutex.
func (g *Generator) chunkBody(loop *minic.ForStmt, info *dataflow.LoopInfo, id int, from, to float64) error {
	g.tmp++
	sub := g.tmp
	g.l("start%d := lo%d + int64(float64(span%d)*%v)", sub, id, id, from)
	g.l("end%d := lo%d + int64(float64(span%d)*%v)", sub, id, id, to)
	// Privatize reductions.
	oldRenames := g.renames
	g.renames = map[*minic.Symbol]string{}
	for k, v := range oldRenames {
		g.renames[k] = v
	}
	type red struct {
		local string
		sym   *minic.Symbol
		op    dataflow.ReductionOp
	}
	var reds []red
	for _, r := range info.Reductions {
		g.tmp++
		local := fmt.Sprintf("red%d", g.tmp)
		g.renames[r.Sym] = local
		identity := "0"
		if r.Sym.Type.Base == minic.Float {
			identity = "0.0"
		}
		switch r.Op {
		case dataflow.ReduceMul:
			identity = "1"
			if r.Sym.Type.Base == minic.Float {
				identity = "1.0"
			}
		case dataflow.ReduceMin:
			identity = "int64(1) << 62"
			if r.Sym.Type.Base == minic.Float {
				g.usesMath = true
				identity = "math.Inf(1)"
			}
		case dataflow.ReduceMax:
			identity = "-(int64(1) << 62)"
			if r.Sym.Type.Base == minic.Float {
				g.usesMath = true
				identity = "math.Inf(-1)"
			}
		}
		g.l("%s := %s(%s)", local, goScalar(r.Sym.Type.Base), identity)
		reds = append(reds, red{local: local, sym: r.Sym, op: r.Op})
	}
	ind := gname(info.IndVar.Name)
	g.l("for %s := start%d; %s < end%d; %s++ {", ind, sub, ind, sub, ind)
	g.ind++
	for _, s := range loop.Body.Stmts {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	g.ind--
	g.l("}")
	g.renames = oldRenames
	// Merge reduction partials.
	if len(reds) > 0 {
		g.l("redMu.Lock()")
		for _, r := range reds {
			target := g.rename(r.sym)
			switch r.op {
			case dataflow.ReduceAdd:
				g.l("%s += %s", target, r.local)
			case dataflow.ReduceMul:
				g.l("%s *= %s", target, r.local)
			case dataflow.ReduceMin:
				if r.sym.Type.Base == minic.Float {
					g.usesMath = true
					g.l("%s = math.Min(%s, %s)", target, target, r.local)
				} else {
					g.l("%s = imin(%s, %s)", target, target, r.local)
				}
			case dataflow.ReduceMax:
				if r.sym.Type.Base == minic.Float {
					g.usesMath = true
					g.l("%s = math.Max(%s, %s)", target, target, r.local)
				} else {
					g.l("%s = imax(%s, %s)", target, target, r.local)
				}
			}
		}
		g.l("redMu.Unlock()")
	}
	return nil
}

// loopBounds extracts the canonical bounds of "for (i = LO; i < HI; i++)"
// (or <=, adding one). Returns Go expressions.
func (g *Generator) loopBounds(loop *minic.ForStmt, info *dataflow.LoopInfo) (lo, hi string, ok bool) {
	switch init := loop.Init.(type) {
	case *minic.DeclStmt:
		if init.Sym != info.IndVar || init.Init == nil {
			return "", "", false
		}
		lo = g.exprConv(init.Init, minic.Int)
	case *minic.ExprStmt:
		asn, isAsn := init.X.(*minic.AssignExpr)
		if !isAsn || asn.Op != minic.TokAssign {
			return "", "", false
		}
		vr, isVar := asn.LHS.(*minic.VarRef)
		if !isVar || vr.Sym != info.IndVar {
			return "", "", false
		}
		lo = g.exprConv(asn.RHS, minic.Int)
	default:
		return "", "", false
	}
	cond, isBin := loop.Cond.(*minic.BinaryExpr)
	if !isBin {
		return "", "", false
	}
	switch cond.Op {
	case minic.TokLt:
		hi = g.exprConv(cond.Y, minic.Int)
	case minic.TokLe:
		hi = "(" + g.exprConv(cond.Y, minic.Int) + " + 1)"
	default:
		return "", "", false
	}
	return lo, hi, true
}
