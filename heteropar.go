// Package heteropar is an automatic parallelizer for heterogeneous MPSoCs:
// a from-scratch reproduction of Cordes, Neugebauer, Engel and Marwedel,
// "Automatic Extraction of Task-Level Parallelism for Heterogeneous
// MPSoCs", ICPP 2013.
//
// The library takes a sequential program written in an ANSI-C subset and a
// heterogeneous platform description (processor classes with different
// clock speeds), profiles the program, builds an Augmented Hierarchical
// Task Graph, and extracts task-level parallelism with Integer Linear
// Programming models that simultaneously partition statements into tasks
// and pre-map tasks onto processor classes. The resulting plan can be
// inspected, rendered as an annotated source / parallel specification, and
// measured on the bundled event-driven MPSoC simulator.
//
// Quick start:
//
//	rep, err := heteropar.Parallelize(src, heteropar.Options{
//		Platform: heteropar.PlatformA(),
//		Scenario: heteropar.Accelerator,
//	})
//	if err != nil { ... }
//	fmt.Printf("speedup %.2fx\n", rep.MeasuredSpeedup)
//	fmt.Println(rep.AnnotatedSource())
package heteropar

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/htg"
	"repro/internal/minic"
	"repro/internal/mpsoc"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/solstore"
	"repro/internal/taskspec"
)

// SolutionStore re-exports the sharded, size-bounded region-solve
// store (see package repro/internal/solstore): a content-addressed LRU
// cache of per-region ILP outcomes, safe for concurrent use and
// shareable across Parallelize calls so repeated or related programs
// skip identical region solves, plus a small stage of recent sources'
// front ends. Reuse is guaranteed output-neutral — keys cover every
// solver-visible input — so results stay byte-identical to a
// store-less run.
type SolutionStore = solstore.Store

// NewSolutionStore builds a region-solve store holding up to capacity
// entries (a default capacity applies when non-positive). Pass it via
// Options.Store, sharing one store across calls for cross-run reuse.
func NewSolutionStore(capacity int) *SolutionStore {
	return solstore.New(solstore.Options{Capacity: capacity})
}

// Platform re-exports the platform description type.
type Platform = platform.Platform

// ProcClass re-exports the processor class type.
type ProcClass = platform.ProcClass

// Scenario selects which processor class hosts the main (sequential) task.
type Scenario = platform.Scenario

// Scenario values: Accelerator puts the main task on the slowest class
// (scenario I of the paper), SlowerCores on the fastest (scenario II).
const (
	Accelerator = platform.ScenarioAccelerator
	SlowerCores = platform.ScenarioSlowerCores
)

// Approach selects the parallelization algorithm.
type Approach = core.Approach

// Approach values: Heterogeneous is the paper's contribution; Homogeneous
// is the uniform-cost baseline it is compared against.
const (
	Heterogeneous = core.Heterogeneous
	Homogeneous   = core.Homogeneous
)

// PlatformA returns evaluation configuration (A): ARM cores at
// 100/250/500/500 MHz.
func PlatformA() *Platform { return platform.ConfigA() }

// PlatformB returns evaluation configuration (B): ARM cores at
// 200/200/500/500 MHz (big.LITTLE-like).
func PlatformB() *Platform { return platform.ConfigB() }

// NewPlatform builds a custom platform from processor classes, using the
// library's default bus and task-creation overheads.
func NewPlatform(name string, classes ...ProcClass) *Platform {
	base := platform.ConfigA()
	return &Platform{
		Name:          name,
		Classes:       classes,
		BusLatencyNs:  base.BusLatencyNs,
		BusBytesPerNs: base.BusBytesPerNs,
		TaskCreateNs:  base.TaskCreateNs,
	}
}

// Options configures Parallelize.
type Options struct {
	// Platform is the target MPSoC (PlatformA() when nil).
	Platform *Platform
	// Scenario picks the main processor class (Accelerator by default).
	Scenario Scenario
	// Approach picks the algorithm (Heterogeneous by default).
	Approach Approach
	// MaxILPTime caps the solver time per ILP (optional). Without it
	// every solve ends on a deterministic work budget, so the plan does
	// not depend on machine speed; with it a plan may.
	MaxILPTime time.Duration
	// SkipSimulation omits the MPSoC measurement (faster; the report's
	// Measured* fields stay zero).
	SkipSimulation bool
	// Store, when non-nil, caches region ILP solves by content address
	// so repeated or related Parallelize calls (e.g. the same program
	// on both scenarios of a platform) skip identical solves. It also
	// keeps the front end (checked program and HTG) of the last few
	// sources, so a repeated source skips compile, profiling and HTG
	// build. See NewSolutionStore.
	Store *SolutionStore
	// Tracer, when non-nil, records phase spans, per-solve solver spans
	// and simulator occupancy for the -trace tooling. Its spans reach an
	// event log only when its owner calls Tracer.SetEvents.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives solver/cache/pool metric families.
	Metrics *obs.Registry
	// Events, when non-nil, receives the solver's structured telemetry
	// events (one ilp-incumbent per integral improvement). Store
	// evictions and worker stalls go to the store's own event log.
	Events *obs.EventLog
}

// Report is the result of parallelizing one program.
type Report struct {
	// Program is the checked AST and Graph the Augmented Hierarchical
	// Task Graph. Reports planned from one source on one Store share
	// both, so treat them as read-only.
	Program *minic.Program
	Graph   *htg.Graph
	// Result holds the chosen solution, the per-node parallel sets and
	// the ILP statistics.
	Result *core.Result
	// Spec is the flattened parallel + pre-mapping specification.
	Spec *taskspec.Spec

	// EstimatedSpeedup is the parallelizer's cost-model prediction.
	EstimatedSpeedup float64
	// MeasuredSpeedup and MeasuredMakespanNs come from the MPSoC
	// simulator (zero when SkipSimulation was set).
	MeasuredSpeedup    float64
	MeasuredMakespanNs float64
	// SequentialNs is the baseline: sequential execution on the main core.
	SequentialNs float64
	// MeasuredEnergyUJ is the simulated energy of the parallel execution;
	// SequentialEnergyUJ the baseline's (main core active, others idling).
	MeasuredEnergyUJ   float64
	SequentialEnergyUJ float64
	// MainClass is the resolved main processor class index.
	MainClass int
	// Measured is the raw simulator result (trace, utilization, energy);
	// nil when SkipSimulation was set.
	Measured *mpsoc.Result

	opts Options
}

// Parallelize runs the complete tool flow on source. The telemetry
// sinks in opts go straight to the pipeline: each phase (the front end
// with its compile, profile and HTG build, parallelize with its
// per-region ILP solves, taskspec, simulate) is a span on opts.Tracer,
// which also receives the simulated schedule as per-core occupancy
// tracks; solver telemetry flows into opts.Metrics and opts.Events. A
// front end reused from opts.Store is one front-end span with
// cached=true and no compile, profile or htg-build span.
func Parallelize(source string, opts Options) (*Report, error) {
	if opts.Platform == nil {
		opts.Platform = PlatformA()
	}
	if err := opts.Platform.Validate(); err != nil {
		return nil, err
	}
	tr := opts.Tracer
	flow := tr.Start("parallelize-flow",
		obs.String("platform", opts.Platform.Name),
		obs.String("approach", opts.Approach.String()))
	defer flow.End()

	g, err := frontEnd(source, opts.Store, tr)
	if err != nil {
		se := err.(*htg.StageError)
		if se.Stage == htg.StageProfile {
			return nil, fmt.Errorf("heteropar: profiling failed: %w", se.Err)
		}
		return nil, fmt.Errorf("heteropar: %w", se.Err)
	}
	prog := g.Program
	mainClass := opts.Scenario.MainClass(opts.Platform)
	cfg := core.Config{
		ILPTimeout: opts.MaxILPTime,
		Store:      opts.Store,
		Tracer:     tr,
		Metrics:    opts.Metrics,
		Events:     opts.Events,
		Audit:      analysis.AuditResult,
	}
	span := tr.Start("parallelize", obs.Int("main_class", mainClass))
	res, err := core.Parallelize(g, opts.Platform, mainClass, opts.Approach, cfg)
	if err != nil {
		span.End()
		return nil, fmt.Errorf("heteropar: %w", err)
	}
	span.SetAttr(
		obs.Int("ilps", res.Stats.NumILPs),
		obs.Int("bb_nodes", res.Stats.BBNodes),
		obs.Dur("solve_time", res.Stats.SolveTime))
	span.End()
	span = tr.Start("taskspec")
	spec := taskspec.Build(res.Best, res.Platform)
	span.End()
	rep := &Report{
		Program:          prog,
		Graph:            g,
		Result:           res,
		Spec:             spec,
		EstimatedSpeedup: res.EstimatedSpeedup(g),
		MainClass:        mainClass,
		opts:             opts,
	}
	if !opts.SkipSimulation {
		span = tr.Start("simulate")
		sim := mpsoc.New(opts.Platform, opts.Approach == Homogeneous)
		meas, err := sim.Run(res.Best, mainClass)
		if err != nil {
			span.End()
			return nil, fmt.Errorf("heteropar: simulation failed: %w", err)
		}
		rep.SequentialNs = sim.SequentialBaseline(g, mainClass)
		rep.MeasuredMakespanNs = meas.MakespanNs
		rep.MeasuredSpeedup = mpsoc.Speedup(rep.SequentialNs, meas.MakespanNs)
		rep.MeasuredEnergyUJ = meas.EnergyUJ
		rep.SequentialEnergyUJ = sim.SequentialEnergyUJ(g, mainClass)
		rep.Measured = meas
		span.SetAttr(
			obs.Float("makespan_ns", meas.MakespanNs),
			obs.Float("speedup", rep.MeasuredSpeedup))
		span.End()
		meas.ExportOccupancy(tr, opts.Platform)
	}
	return rep, nil
}

// frontEndResult is the front-end stage's value for one source: its HTG
// (whose Program is the checked AST), or the error of the stage that
// failed, which reaches the callers in flight and is never stored.
type frontEndResult struct {
	g   *htg.Graph
	err error
}

// frontEnd returns the HTG of source, reused from the store's front-end
// stage or compiled, profiled and built there. The key is the source's
// SHA-256 alone: the facade always builds with the default htg.Config,
// so every platform, scenario, approach and option of one program shares
// an entry. The lookup is one front-end span (cached=true on reuse);
// a computation nests the compile, profile and htg-build spans in it.
func frontEnd(source string, store *SolutionStore, tr *obs.Tracer) (*htg.Graph, error) {
	span := tr.Start("front-end")
	sum := sha256.Sum256([]byte(source))
	v, cached := store.FrontEnd("frontend|"+hex.EncodeToString(sum[:]), func() (any, bool) {
		g, err := htg.FromSource(source, tr)
		return frontEndResult{g, err}, err == nil
	})
	span.SetAttr(obs.Bool("cached", cached))
	span.End()
	r := v.(frontEndResult)
	return r.g, r.err
}

// AnnotatedSource renders the program with OpenMP-style task annotations.
func (r *Report) AnnotatedSource() string {
	return r.Spec.AnnotateSource(r.Program)
}

// ParallelSpec renders the parallel + pre-mapping specification.
func (r *Report) ParallelSpec() string { return r.Spec.Render() }

// PlanSummary renders the hierarchical task plan.
func (r *Report) PlanSummary() string {
	return r.Result.Best.Describe(r.Result.Platform)
}

// NumTasks returns the number of tasks in the flattened specification.
func (r *Report) NumTasks() int { return r.Spec.NumTasks() }

// TheoreticalLimit returns the platform's maximum speedup for the chosen
// scenario (the dashed line of the paper's figures).
func (r *Report) TheoreticalLimit() float64 {
	return r.opts.Platform.TheoreticalSpeedup(r.MainClass)
}

// SolverStatsTable renders the per-region ILP solve records (region,
// model, problem size, branch-and-bound effort, gap, status) as an
// aligned text table. Empty when no ILPs were solved.
func (r *Report) SolverStatsTable() string {
	return r.Result.Stats.SolveTable()
}

// Gantt renders the simulated execution as an ASCII timeline (empty when
// the simulation was skipped). Non-positive widths fall back to 96
// columns instead of producing a degenerate chart.
func (r *Report) Gantt(width int) string {
	if r.Measured == nil {
		return ""
	}
	if width <= 0 {
		width = 96
	}
	return mpsoc.RenderGantt(r.opts.Platform, r.Measured, width)
}

// GenerateGo emits a runnable parallel Go implementation of the chosen
// plan (goroutines + channel synchronization); the equivalent of the
// paper's source-to-source implementation step.
func (r *Report) GenerateGo() (string, error) {
	return codegen.Parallel(r.Program, r.Result.Best)
}

// GenerateSequentialGo emits the sequential Go reference translation.
func (r *Report) GenerateSequentialGo() (string, error) {
	return codegen.Sequential(r.Program)
}
