package core

import (
	"repro/internal/htg"
	"repro/internal/platform"
)

// regionItem is one partitionable unit handed to the ILP: an HTG child
// node (with its per-class candidate sets) or an iteration chunk of a
// DOALL loop.
type regionItem struct {
	name string
	// node is the HTG child (nil for chunk items).
	node *htg.Node
	// cands[c] lists the selectable solutions when the item executes on
	// class c (COSTS/USEDPROCS providers). Always non-empty per class.
	cands [][]*Solution
	// chunkFrac is the iteration fraction for chunk items.
	chunkFrac float64
	// inCommNs / outCommNs are the total boundary communication costs if
	// the item is placed outside the main task.
	inCommNs  float64
	outCommNs float64
}

// regionEdge is a dependence between region items.
type regionEdge struct {
	from, to int
	// commNs is the total communication cost paid when from and to land in
	// different tasks (0 for pure ordering constraints).
	commNs float64
}

// regionSpec is the abstract input of one ILPPAR invocation.
type regionSpec struct {
	node  *htg.Node
	items []*regionItem
	edges []regionEdge
	// spawnCount is EC in Eq. 8: how many times the task set is created.
	spawnCount float64
	// kind records how a winning partition executes (task or chunk based).
	kind SolutionKind
}

// chunkCount picks the number of iteration chunks for DOALL splitting:
// enough granularity to balance the most skewed shipped platform (5x clock
// spread) without blowing up the ILP.
func chunkCount(pf *platform.Platform, iters float64) int {
	k := 3 * pf.NumCores()
	if k > 12 {
		k = 12
	}
	if iters > 0 && float64(k) > iters {
		k = int(iters)
	}
	if k < 2 {
		k = 2
	}
	return k
}

// statementRegion builds the region over node's child statements, using
// the candidate sets collected by the bottom-up recursion.
func (p *Parallelizer) statementRegion(node *htg.Node) *regionSpec {
	rs := &regionSpec{node: node, kind: KindTaskParallel}
	// EC: tasks are spawned once per execution of the region's body. For
	// loop nodes the children run per iteration, so creation happens per
	// iteration (fork-join inside the loop).
	rs.spawnCount = float64(node.TotalCount)
	if node.Kind == htg.KindLoop {
		iters := 0.0
		for _, c := range node.Children {
			if c.Count > iters {
				iters = c.Count
			}
		}
		if iters < 1 {
			iters = 1
		}
		rs.spawnCount = float64(node.TotalCount) * iters
	}
	idx := map[*htg.Node]int{}
	for _, child := range node.Children {
		it := &regionItem{name: child.Label, node: child}
		set := p.setOf(child)
		it.cands = make([][]*Solution, len(p.pf.Classes))
		for c := range p.pf.Classes {
			it.cands[c] = set.ByClass[c]
		}
		transfers := float64(child.TotalCount)
		it.inCommNs = p.pf.CommCostNs(child.InBytes) * transfers
		it.outCommNs = p.pf.CommCostNs(child.OutBytes) * transfers
		idx[child] = len(rs.items)
		rs.items = append(rs.items, it)
	}
	for _, child := range node.Children {
		for _, e := range child.Edges {
			to, ok := idx[e.To]
			if !ok {
				continue
			}
			comm := 0.0
			if e.Bytes > 0 {
				comm = p.pf.CommCostNs(e.Bytes) * float64(e.To.TotalCount)
			}
			rs.edges = append(rs.edges, regionEdge{from: idx[child], to: to, commNs: comm})
		}
	}
	return rs
}

// chunkRegion builds the iteration-chunk region for a DOALL loop node.
// Chunks are independent (no edges); tasks are spawned once per loop
// execution, which is what makes chunked solutions so much cheaper than
// per-iteration fork-join for hot loops.
func (p *Parallelizer) chunkRegion(node *htg.Node) *regionSpec {
	iters := 0.0
	for _, c := range node.Children {
		if c.Count > iters {
			iters = c.Count
		}
	}
	k := chunkCount(p.pf, iters)
	rs := &regionSpec{node: node, kind: KindChunked, spawnCount: float64(node.TotalCount)}
	frac := 1.0 / float64(k)
	totalCyclesPerExec := node.SubtreeCycles
	for i := 0; i < k; i++ {
		it := &regionItem{
			name:      "chunk",
			node:      node, // the loop node; chunkFrac marks this as a slice of it
			chunkFrac: frac,
		}
		it.cands = make([][]*Solution, len(p.pf.Classes))
		for c := range p.pf.Classes {
			procs := make([]int, len(p.pf.Classes))
			procs[c] = 1
			it.cands[c] = []*Solution{{
				Node:      node,
				Kind:      KindSequential,
				MainClass: c,
				TimeNs:    float64(node.TotalCount) * p.pf.Classes[c].CyclesToNanos(totalCyclesPerExec) * frac,
				ProcsUsed: procs,
				NumTasks:  1,
			}}
		}
		// Boundary data: each chunk imports/exports its slice of the
		// loop's in/out footprint, once per loop execution.
		it.inCommNs = p.pf.CommCostNs(int(float64(node.InBytes)*frac)) * float64(node.TotalCount)
		it.outCommNs = p.pf.CommCostNs(int(float64(node.OutBytes)*frac)) * float64(node.TotalCount)
		rs.items = append(rs.items, it)
	}
	return rs
}

// clusterRegion merges the cheapest adjacent items until the region has at
// most maxItems, bounding per-ILP size. Merged items execute consecutively
// in one task, so only sequential candidates remain for them — acceptable
// because only the cheapest items are merged (automatic granularity
// control via the cost model, contribution 2 of the paper).
func (p *Parallelizer) clusterRegion(rs *regionSpec, maxItems int) *regionSpec {
	for len(rs.items) > maxItems {
		// Find the adjacent pair with the smallest combined best-case cost.
		bestIdx, bestCost := -1, 0.0
		for i := 0; i+1 < len(rs.items); i++ {
			c := p.itemMinCost(rs.items[i]) + p.itemMinCost(rs.items[i+1])
			if bestIdx < 0 || c < bestCost {
				bestIdx, bestCost = i, c
			}
		}
		rs = p.mergeItems(rs, bestIdx)
	}
	return rs
}

// itemMinCost is the fastest candidate cost over all classes.
func (p *Parallelizer) itemMinCost(it *regionItem) float64 {
	best := -1.0
	for _, cl := range it.cands {
		for _, s := range cl {
			if best < 0 || s.TimeNs < best {
				best = s.TimeNs
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// mergeItems fuses items i and i+1 into a single sequential super-item.
func (p *Parallelizer) mergeItems(rs *regionSpec, i int) *regionSpec {
	a, b := rs.items[i], rs.items[i+1]
	merged := &regionItem{
		name:      a.name + "+" + b.name,
		node:      a.node, // representative; taskspec resolves both via plan items
		inCommNs:  a.inCommNs + b.inCommNs,
		outCommNs: a.outCommNs + b.outCommNs,
		chunkFrac: a.chunkFrac + b.chunkFrac,
	}
	merged.cands = make([][]*Solution, len(p.pf.Classes))
	for c := range p.pf.Classes {
		sa, sb := seqCandOn(a, c), seqCandOn(b, c)
		if sa == nil || sb == nil {
			continue
		}
		procs := make([]int, len(p.pf.Classes))
		procs[c] = 1
		merged.cands[c] = []*Solution{{
			Node:      a.nodeOr(rs.node),
			Kind:      KindSequential,
			MainClass: c,
			TimeNs:    sa.TimeNs + sb.TimeNs,
			ProcsUsed: procs,
			NumTasks:  1,
			merged:    []*regionItem{a, b},
		}}
	}
	items := append([]*regionItem(nil), rs.items[:i]...)
	items = append(items, merged)
	items = append(items, rs.items[i+2:]...)
	// Remap edges.
	remap := func(j int) int {
		switch {
		case j < i:
			return j
		case j == i || j == i+1:
			return i
		default:
			return j - 1
		}
	}
	var edges []regionEdge
	for _, e := range rs.edges {
		f, t := remap(e.from), remap(e.to)
		if f == t {
			continue
		}
		edges = append(edges, regionEdge{from: f, to: t, commNs: e.commNs})
	}
	return &regionSpec{node: rs.node, items: items, edges: edges, spawnCount: rs.spawnCount, kind: rs.kind}
}

// nodeOr returns the item's node or a fallback.
func (it *regionItem) nodeOr(fallback *htg.Node) *htg.Node {
	if it.node != nil {
		return it.node
	}
	return fallback
}

// seqCandOn returns the item's purely sequential candidate on class c.
// Matching on Kind matters: a single-task candidate can still carry an
// inner-parallel sub-solution (extra processors), and the callers here —
// chunk costs and merged super-items — both budget exactly one unit for
// the item. The pruned front always retains the sequential candidate (it
// is the unique one-processor point, hence the leanest end).
func seqCandOn(it *regionItem, c int) *Solution {
	for _, s := range it.cands[c] {
		if s.Kind == KindSequential {
			return s
		}
	}
	if len(it.cands[c]) > 0 {
		return it.cands[c][len(it.cands[c])-1]
	}
	return nil
}
