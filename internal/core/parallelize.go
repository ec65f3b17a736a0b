package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/htg"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/solstore"
)

// Approach selects the parallelization algorithm.
type Approach int

// Approaches.
const (
	// Heterogeneous is the paper's contribution: class-aware cost model and
	// integrated task-to-processor-class mapping.
	Heterogeneous Approach = iota
	// Homogeneous is the baseline of [Cordes et al., CODES+ISSS 2010]: a
	// single uniform cost model (the main core's), no mapping dimension.
	// Its tasks are placed round-robin on the physical cores at runtime.
	Homogeneous
)

// String names the approach.
func (a Approach) String() string {
	if a == Homogeneous {
		return "homogeneous"
	}
	return "heterogeneous"
}

// Config tunes the parallelizer.
type Config struct {
	// MaxItemsPerILP bounds region size via granularity clustering
	// (default 12).
	MaxItemsPerILP int
	// MaxCandsPerClass bounds each node's pruned candidate set (default 5).
	MaxCandsPerClass int
	// MaxTasksPerRegion caps the task bound each region ILP starts from
	// (0 = the platform's core count). ILP size — and simplex time —
	// grows steeply with the bound, so design-space sweeps over large
	// platforms set a small cap to trade a little plan optimality for
	// tractable solve times.
	MaxTasksPerRegion int
	// MaxILPNodes caps branch-and-bound nodes per ILP (default 1500).
	MaxILPNodes int
	// ILPTimeout, when positive, caps wall time per ILP. There is no cap
	// by default: a wall-clock cap makes the plan depend on machine speed
	// and load, so the default path ends every search on the
	// deterministic node budget (MaxILPNodes) or the gap.
	ILPTimeout time.Duration
	// ILPRelGap accepts incumbents within this relative optimality gap
	// (default 1%); tightening it trades compile time for solution quality.
	ILPRelGap float64
	// DisableChunking turns DOALL iteration splitting off (ablation).
	DisableChunking bool
	// DisableHierarchy runs a single flat ILP over the root region only
	// (ablation; inner nodes keep sequential candidates only).
	DisableHierarchy bool
	// Store, when non-nil, is the shared region-solve store: every
	// region ILP is looked up by its canonical fingerprint before
	// solving, and solved results (including proven "no improvement"
	// outcomes) are published for reuse across runs, scenarios and
	// design-space sweep points sharing the store.
	Store *solstore.Store
	// Tracer, when non-nil, receives one span per ILP solve (region,
	// model shape, solver outcome attributes).
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives solver telemetry: B&B nodes, LP
	// iterations, incumbent updates, gaps, timeout and node-cap hits, and
	// solve durations.
	Metrics *obs.Registry
	// Events, when non-nil, receives the solver's incumbent events as
	// JSONL-ready records (region-store evictions and worker stalls go
	// to the store's own event log).
	Events *obs.EventLog
	// Audit, when non-nil, receives the finished Result before Parallelize
	// returns; a non-nil error fails the whole run with it. The analysis
	// package provides an auditor (analysis.AuditResult) that structurally
	// verifies every solution: conflicting-access ordering, cycle-freeness,
	// per-class core budgets and cost recomputation. Both public entry
	// points (heteropar.Parallelize and the DSE engine) install it by
	// default.
	Audit func(*Result) error
}

// Fingerprint returns a canonical string of every field that influences
// which solutions the parallelizer produces, with defaults applied, so
// two configs with equal fingerprints are interchangeable for caching.
// The observability sinks (Tracer, Metrics, Events) and the Audit hook are
// deliberately excluded: they never change which solutions are produced,
// only whether defective ones are reported. Store is excluded for the
// same reason — cache reuse is guaranteed not to change any output.
func (c Config) Fingerprint() string {
	d := c.withDefaults()
	return fmt.Sprintf("items:%d;cands:%d;tasks:%d;nodes:%d;timeout:%s;gap:%g;chunk:%t;hier:%t",
		d.MaxItemsPerILP, d.MaxCandsPerClass, d.MaxTasksPerRegion, d.MaxILPNodes,
		d.ILPTimeout, d.ILPRelGap, !d.DisableChunking, !d.DisableHierarchy)
}

func (c Config) withDefaults() Config {
	if c.MaxItemsPerILP == 0 {
		c.MaxItemsPerILP = 12
	}
	if c.MaxCandsPerClass == 0 {
		c.MaxCandsPerClass = 5
	}
	if c.MaxILPNodes == 0 {
		c.MaxILPNodes = 1500
	}
	if c.ILPRelGap == 0 {
		c.ILPRelGap = 0.01
	}
	return c
}

// SolveRecord is the telemetry of one per-region ILP solve.
type SolveRecord struct {
	// Region names the HTG node whose child region was solved.
	Region string
	// Model is the ILP family: "tasks" (statement partitioning) or
	// "chunks" (DOALL iteration splitting).
	Model string
	// Class is the main-task processor class of this solve; MaxTasks the
	// task-count bound of the sweep step.
	Class    int
	MaxTasks int
	// Vars and Cons are the model dimensions.
	Vars int
	Cons int
	// Status is the solver outcome (optimal, feasible, infeasible, ...).
	Status string
	// Nodes, LPIters and Incumbents are the branch-and-bound effort
	// counters; Gap the final relative optimality gap.
	Nodes      int
	LPIters    int
	Incumbents int
	Gap        float64
	// WarmStarts counts the node relaxations attempted from the parent
	// basis and WarmHits those that succeeded without a cold fallback.
	WarmStarts int
	WarmHits   int
	// TimedOut / NodeCapped mark truncated searches.
	TimedOut   bool
	NodeCapped bool
	// Time is the wall-clock solve duration.
	Time time.Duration
}

// Optimal reports whether the solve proved optimality.
func (r SolveRecord) Optimal() bool { return r.Status == "optimal" }

// Stats reports the solver effort: the aggregate quantities of Table I
// plus per-solve telemetry.
type Stats struct {
	NumILPs        int
	NumVars        int
	NumConstraints int
	SolveTime      time.Duration
	BBNodes        int
	// LPIters totals simplex iterations across all solves; Incumbents
	// the integral improvements found.
	LPIters    int
	Incumbents int
	// WarmStarts and WarmHits aggregate the revised-simplex engine
	// counters across all solves.
	WarmStarts int
	WarmHits   int
	// Timeouts and NodeCapHits count truncated solves; ProvedOptimal the
	// solves that closed the gap completely. MaxGap is the worst final
	// relative optimality gap over all solves that found a solution.
	Timeouts      int
	NodeCapHits   int
	ProvedOptimal int
	MaxGap        float64
	// Solves lists every per-region ILP solve in execution order.
	Solves []SolveRecord
}

// record folds one solve into the aggregates.
func (s *Stats) record(rec SolveRecord) {
	s.NumILPs++
	s.NumVars += rec.Vars
	s.NumConstraints += rec.Cons
	s.SolveTime += rec.Time
	s.BBNodes += rec.Nodes
	s.LPIters += rec.LPIters
	s.Incumbents += rec.Incumbents
	s.WarmStarts += rec.WarmStarts
	s.WarmHits += rec.WarmHits
	if rec.TimedOut {
		s.Timeouts++
	}
	if rec.NodeCapped {
		s.NodeCapHits++
	}
	if rec.Optimal() {
		s.ProvedOptimal++
	}
	if rec.Gap > s.MaxGap {
		s.MaxGap = rec.Gap
	}
	s.Solves = append(s.Solves, rec)
}

// SolveTable renders the per-region solve records as an aligned
// human-readable table (the CLI's -stats view).
func (s *Stats) SolveTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %-8s %5s %5s %6s %6s %7s %9s %6s %7s %9s\n",
		"region", "model", "class", "tasks", "vars", "cons",
		"nodes", "lp-iters", "inc", "gap", "time")
	sb.WriteString(strings.Repeat("-", 98) + "\n")
	for _, r := range s.Solves {
		flags := ""
		if r.TimedOut {
			flags = "!t"
		}
		if r.NodeCapped {
			flags += "!n"
		}
		region := r.Region
		if len(region) > 22 {
			region = region[:19] + "..."
		}
		fmt.Fprintf(&sb, "%-22s %-8s %5d %5d %6d %6d %7d %9d %6d %6.2f%% %9s %s\n",
			region, r.Model, r.Class, r.MaxTasks, r.Vars, r.Cons,
			r.Nodes, r.LPIters, r.Incumbents, r.Gap*100,
			r.Time.Round(time.Microsecond), r.Status+flags)
	}
	sb.WriteString(strings.Repeat("-", 98) + "\n")
	fmt.Fprintf(&sb, "total: %d ILPs, %d B&B nodes, %d LP iterations, %d incumbents, %v solve time\n",
		s.NumILPs, s.BBNodes, s.LPIters, s.Incumbents, s.SolveTime.Round(time.Millisecond))
	fmt.Fprintf(&sb, "       %d proved optimal, %d timeouts, %d node-cap hits, worst gap %.2f%%\n",
		s.ProvedOptimal, s.Timeouts, s.NodeCapHits, s.MaxGap*100)
	warmPct := 0.0
	if s.WarmStarts > 0 {
		warmPct = 100 * float64(s.WarmHits) / float64(s.WarmStarts)
	}
	fmt.Fprintf(&sb, "       %d/%d warm starts hit (%.1f%%)\n",
		s.WarmHits, s.WarmStarts, warmPct)
	return sb.String()
}

// Result is the outcome of parallelizing one program.
type Result struct {
	// Best is the chosen solution for the root node with the main task on
	// the scenario's main class (never nil; sequential if no parallelism
	// is profitable).
	Best *Solution
	// Sets holds the full per-node parallel sets for inspection.
	Sets map[*htg.Node]*SolutionSet
	// Stats aggregates ILP statistics.
	Stats Stats
	// Approach and MainClass echo the request.
	Approach  Approach
	MainClass int
	// Platform is the platform the solution's class indices refer to: the
	// real platform for Heterogeneous, the uniform pseudo-platform for
	// Homogeneous.
	Platform *platform.Platform
}

// SequentialTimeNs returns the baseline: the whole program run
// sequentially on the main class.
func (r *Result) SequentialTimeNs(g *htg.Graph) float64 {
	return float64(g.Root.TotalCount) * g.Root.CostNanosOn(r.Platform.Classes[r.MainClass])
}

// EstimatedSpeedup is the cost-model speedup (simulation gives the
// measured one).
func (r *Result) EstimatedSpeedup(g *htg.Graph) float64 {
	if r.Best.TimeNs <= 0 {
		return 1
	}
	return r.SequentialTimeNs(g) / r.Best.TimeNs
}

// Parallelizer drives Algorithm 1 over one HTG. The root parallelizer
// of a run owns the per-node sets; each region unit and store
// computation runs on a scratch parallelizer of its own (see scratch),
// whose stats collect that unit's records for the ordered merge.
type Parallelizer struct {
	pf    *platform.Platform
	cfg   Config
	store *solstore.Store
	stats Stats
	// ws is the ILP workspace of the pool token a unit runs under (nil
	// outside units: every solve then allocates its own).
	ws *ilp.Workspace
	// setsMu guards sets: sibling subtrees are parallelized concurrently.
	setsMu sync.Mutex
	sets   map[*htg.Node]*SolutionSet
}

// Parallelize runs the selected approach on graph g targeting pf with the
// main task on mainClass (an index into pf.Classes).
func Parallelize(g *htg.Graph, pf *platform.Platform, mainClass int, approach Approach, cfg Config) (*Result, error) {
	if err := pf.Validate(); err != nil {
		return nil, err
	}
	if mainClass < 0 || mainClass >= len(pf.Classes) {
		return nil, fmt.Errorf("core: main class %d out of range", mainClass)
	}
	workPF := pf
	workMain := mainClass
	if approach == Homogeneous {
		// The baseline believes every core performs like the main core.
		workPF = platform.Homogeneous(
			pf.Name+"-uniform", pf.Classes[mainClass].MHz, pf.NumCores())
		workPF.BusLatencyNs = pf.BusLatencyNs
		workPF.BusBytesPerNs = pf.BusBytesPerNs
		workPF.TaskCreateNs = pf.TaskCreateNs
		workMain = 0
	}
	p := &Parallelizer{pf: workPF, cfg: cfg.withDefaults(), store: cfg.Store,
		sets: map[*htg.Node]*SolutionSet{}}
	// Fold the records in depth-first unit order: the order of a
	// sequential run, whatever the pool width. The last-gap gauge is
	// set here rather than by the solves, which finish in any order.
	recs := p.parallelizeNode(g.Root)
	for _, rec := range recs {
		p.stats.record(rec)
	}
	if len(recs) > 0 {
		cfg.Metrics.Gauge("ilp.gap.last").Set(recs[len(recs)-1].Gap)
	}
	best := p.setOf(g.Root).Best(workMain)
	if best == nil {
		best = sequentialSolution(g.Root, workPF, workMain)
	}
	res := &Result{
		Best:      best,
		Sets:      p.sets,
		Approach:  approach,
		MainClass: workMain,
		Platform:  workPF,
		Stats:     p.stats,
	}
	if cfg.Audit != nil {
		if err := cfg.Audit(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// parallelizeNode implements the PARALLELIZE function of Algorithm 1:
// recurse bottom-up, then extract parallelism for this node once all
// children carry their parallel sets. It returns the solve records of
// n's subtree in depth-first order: each child's in child order, then
// n's own in unit order.
func (p *Parallelizer) parallelizeNode(n *htg.Node) []SolveRecord {
	set := &SolutionSet{Node: n, ByClass: make([][]*Solution, len(p.pf.Classes))}
	// Line 7: sequential solutions, one per processor class.
	for c := range p.pf.Classes {
		set.ByClass[c] = append(set.ByClass[c], sequentialSolution(n, p.pf, c))
	}
	p.setsMu.Lock()
	p.sets[n] = set
	p.setsMu.Unlock()
	if !n.IsHierarchical() {
		return nil // line 8-9
	}
	// Lines 11-12: children first. Sibling subtrees share nothing but
	// the sets map, so they are parallelized concurrently; leaves only
	// get their sequential solutions and stay on this goroutine.
	childRecs := make([][]SolveRecord, len(n.Children))
	var inner []int
	for i, child := range n.Children {
		if child.IsHierarchical() {
			inner = append(inner, i)
		} else {
			p.parallelizeNode(child)
		}
	}
	fanOut(len(inner), func(k int) {
		childRecs[inner[k]] = p.parallelizeNode(n.Children[inner[k]])
	})
	var recs []SolveRecord
	for _, r := range childRecs {
		recs = append(recs, r...)
	}
	if p.cfg.DisableHierarchy && n.Kind != htg.KindRoot {
		// Ablation: no parallelism below the root region.
		return recs
	}
	if n.TotalCount == 0 {
		return recs // never executed: nothing to gain
	}
	// Lines 14-21: per main class, sweep the task bound downward. Each
	// (region, class) sweep is one independent unit: the sweep chain is
	// sequential within itself (the next bound depends on the previous
	// solution's task count) but shares nothing with its siblings, so
	// units run concurrently on the region pool and merge back in unit
	// order — reproducing the sequential solve order exactly.
	regions := []*regionSpec{p.clusterRegion(p.statementRegion(n), p.cfg.MaxItemsPerILP)}
	if !p.cfg.DisableChunking && n.Kind == htg.KindLoop && n.Loop != nil && n.Loop.Parallel {
		regions = append(regions, p.chunkRegion(n))
	}
	var units []*regionUnit
	for _, rs := range regions {
		for seqPC := range p.pf.Classes {
			rs, seqPC := rs, seqPC
			units = append(units, &regionUnit{seqPC: seqPC, run: func(sub *Parallelizer) []*Solution {
				var sols []*Solution
				i := sub.taskBound()
				for i > 1 {
					r := sub.solveRegion(rs, seqPC, i)
					if r == nil {
						break
					}
					sols = append(sols, r)
					next := r.NumTasks - 1
					if next >= i {
						next = i - 1
					}
					i = next
				}
				return sols
			}})
		}
	}
	p.runUnits(units)
	recs = append(recs, mergeUnits(set, units)...)
	set.prune(p.cfg.MaxCandsPerClass)
	return recs
}

// setOf returns node n's parallel set.
func (p *Parallelizer) setOf(n *htg.Node) *SolutionSet {
	p.setsMu.Lock()
	defer p.setsMu.Unlock()
	return p.sets[n]
}

// taskBound returns the starting task bound for region solving: the
// platform's core count, clipped by the MaxTasksPerRegion budget.
func (p *Parallelizer) taskBound() int {
	n := p.pf.NumCores()
	if p.cfg.MaxTasksPerRegion > 0 && p.cfg.MaxTasksPerRegion < n {
		n = p.cfg.MaxTasksPerRegion
	}
	return n
}
