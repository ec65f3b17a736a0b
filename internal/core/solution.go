// Package core implements the paper's contribution: the hierarchical,
// ILP-based extraction of task-level parallelism for heterogeneous MPSoCs
// (Algorithm 1 and the partitioning-and-mapping model of Section IV), plus
// the homogeneous baseline of [Cordes et al., CODES+ISSS 2010] used as the
// comparison point in the evaluation.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/htg"
	"repro/internal/platform"
)

// SolutionKind describes how a parallel solution candidate executes its
// node.
type SolutionKind int

// Solution kinds.
const (
	// KindSequential runs the whole subtree on the main class, in order.
	KindSequential SolutionKind = iota
	// KindTaskParallel distributes the node's child statements over tasks
	// (the fork-join produced by the ILP of Section IV).
	KindTaskParallel
	// KindChunked splits a DOALL loop's iteration space over tasks.
	KindChunked
)

// String names the kind.
func (k SolutionKind) String() string {
	switch k {
	case KindSequential:
		return "seq"
	case KindTaskParallel:
		return "tasks"
	case KindChunked:
		return "chunked"
	}
	return fmt.Sprintf("SolutionKind(%d)", int(k))
}

// Solution is one parallel solution candidate for an HTG node: the unit
// collected in the per-node "parallel sets" of the algorithm. TimeNs and
// ProcsUsed are the quantities the parent-level ILP consumes (COSTS and
// USEDPROCS); Tasks describes the implementation for the simulator and the
// code generator.
type Solution struct {
	Node *htg.Node
	Kind SolutionKind
	// MainClass tags the processor class executing the main task.
	MainClass int
	// TimeNs is the total execution time attributed to the node across the
	// whole program run (all TotalCount executions), including task
	// creation and communication overheads.
	TimeNs float64
	// ProcsUsed[c] is the number of class-c processing units allocated
	// while this solution runs, including the main task's own unit.
	ProcsUsed []int
	// NumTasks counts tasks including the main task (1 = sequential).
	NumTasks int
	// Tasks holds the per-task plans for parallel kinds. Task 0 is the
	// main task (runs on MainClass).
	Tasks []*TaskPlan
	// Children maps each HTG child to its chosen sub-solution (sequential
	// solutions recurse with nil, meaning "everything sequential").
	// Set for KindTaskParallel.
	Chosen map[*htg.Node]*Solution
	// merged backs super-items created by granularity clustering: the
	// original region items this sequential candidate spans.
	merged []*regionItem
}

// TaskPlan is one extracted task.
type TaskPlan struct {
	// Class is the processor class this task is pre-mapped to.
	Class int
	// Items lists the work units in execution order.
	Items []*ItemPlan
}

// ItemPlan is one work unit inside a task: either an HTG child node
// executed with a chosen sub-solution, or an iteration chunk of a DOALL
// loop.
type ItemPlan struct {
	// Child is the HTG node (nil for pure chunk items).
	Child *htg.Node
	// Sub is the chosen solution for Child (nil = sequential on the task's
	// class).
	Sub *Solution
	// ChunkFrac is the fraction of the surrounding DOALL loop's iteration
	// space this item covers (0 for statement items).
	ChunkFrac float64
}

// ExtraProcs returns the processors the solution needs in addition to the
// unit running its main task.
func (s *Solution) ExtraProcs() []int {
	extra := append([]int(nil), s.ProcsUsed...)
	if s.MainClass >= 0 && s.MainClass < len(extra) && extra[s.MainClass] > 0 {
		extra[s.MainClass]--
	}
	return extra
}

// TotalProcs returns the total allocated processing units.
func (s *Solution) TotalProcs() int {
	n := 0
	for _, c := range s.ProcsUsed {
		n += c
	}
	return n
}

// String renders a compact summary.
func (s *Solution) String() string {
	return fmt.Sprintf("%s(main=c%d, %d task(s), %.0fns, procs=%v)",
		s.Kind, s.MainClass, s.NumTasks, s.TimeNs, s.ProcsUsed)
}

// Describe renders the full task tree, indented, for tooling output.
func (s *Solution) Describe(pf *platform.Platform) string {
	var sb strings.Builder
	s.describe(pf, &sb, 0)
	return sb.String()
}

func (s *Solution) describe(pf *platform.Platform, sb *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	label := "<root>"
	if s.Node != nil {
		label = s.Node.Label
	}
	fmt.Fprintf(sb, "%s%s: %s\n", ind, label, s)
	for ti, t := range s.Tasks {
		fmt.Fprintf(sb, "%s  task %d on %s:\n", ind, ti, pf.Classes[t.Class].Name)
		for _, it := range t.Items {
			switch {
			case it.ChunkFrac > 0:
				fmt.Fprintf(sb, "%s    chunk %.1f%% of iterations\n", ind, it.ChunkFrac*100)
			case it.Sub != nil && it.Sub.Kind != KindSequential:
				it.Sub.describe(pf, sb, depth+2)
			default:
				fmt.Fprintf(sb, "%s    %s (seq)\n", ind, it.Child.Label)
			}
		}
	}
}

// SolutionSet is the per-node "parallel set": all profitable candidates
// grouped by main processor class.
type SolutionSet struct {
	Node *htg.Node
	// ByClass[c] lists candidates whose main task runs on class c, best
	// time first. Each class always contains at least the sequential
	// solution (the guarantee of Section IV-K).
	ByClass [][]*Solution
}

// Best returns the fastest candidate for the given main class.
func (ss *SolutionSet) Best(class int) *Solution {
	if len(ss.ByClass[class]) == 0 {
		return nil
	}
	return ss.ByClass[class][0]
}

// All returns every candidate in the set.
func (ss *SolutionSet) All() []*Solution {
	var out []*Solution
	for _, cl := range ss.ByClass {
		out = append(out, cl...)
	}
	return out
}

// prune keeps, per class, only Pareto-optimal candidates under
// (TimeNs, TotalProcs): a candidate survives when no other candidate is
// both faster (or equal) and uses fewer (or equal) processors. This keeps
// the parent-level ILPs small without losing optimal combinations.
func (ss *SolutionSet) prune(maxPerClass int) {
	for c := range ss.ByClass {
		cands := ss.ByClass[c]
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].TimeNs != cands[j].TimeNs {
				return cands[i].TimeNs < cands[j].TimeNs
			}
			return cands[i].TotalProcs() < cands[j].TotalProcs()
		})
		var kept []*Solution
		bestProcs := 1 << 30
		for _, cand := range cands {
			p := cand.TotalProcs()
			if p < bestProcs {
				kept = append(kept, cand)
				bestProcs = p
			}
		}
		if maxPerClass > 0 && len(kept) > maxPerClass {
			// Keep the fastest and the leanest ends of the front.
			head := kept[:maxPerClass-1]
			tail := kept[len(kept)-1]
			kept = append(append([]*Solution(nil), head...), tail)
		}
		ss.ByClass[c] = kept
	}
}

// sequentialSolution builds the all-sequential candidate for node on class.
func sequentialSolution(node *htg.Node, pf *platform.Platform, class int) *Solution {
	procs := make([]int, len(pf.Classes))
	procs[class] = 1
	return &Solution{
		Node:      node,
		Kind:      KindSequential,
		MainClass: class,
		TimeNs:    float64(node.TotalCount) * node.CostNanosOn(pf.Classes[class]),
		ProcsUsed: procs,
		NumTasks:  1,
	}
}
