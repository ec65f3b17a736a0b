// Package experiments regenerates the paper's evaluation artifacts: the
// speedup bar charts of Figures 7(a/b) and 8(a/b) and the ILP statistics
// of Table I, using the full tool flow (frontend -> profiler -> HTG ->
// ILP parallelization -> MPSoC simulation) on the shipped benchmark suite.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/htg"
	"repro/internal/minic"
	"repro/internal/mpsoc"
	"repro/internal/platform"
)

// Prepared bundles the analysis artifacts of one benchmark, reusable
// across figures.
type Prepared struct {
	Bench *bench.Benchmark
	Prog  *minic.Program
	Graph *htg.Graph
}

// Prepare compiles, profiles and builds the HTG of b.
func Prepare(b *bench.Benchmark) (*Prepared, error) {
	g, err := htg.FromSource(b.Source, nil)
	if err != nil {
		se := err.(*htg.StageError)
		return nil, fmt.Errorf("%s: %s: %w", b.Name, stageNames[se.Stage], se.Err)
	}
	return &Prepared{Bench: b, Prog: g.Program, Graph: g}, nil
}

// stageNames labels front-end failures in Prepare's errors.
var stageNames = map[htg.Stage]string{
	htg.StageCompile: "compile",
	htg.StageProfile: "profile",
	htg.StageBuild:   "htg",
}

// Measured is one (benchmark, approach) measurement.
type Measured struct {
	// Speedup is the simulator-measured speedup over sequential execution
	// on the main core.
	Speedup float64
	// EstimatedSpeedup is the parallelizer's own cost-model prediction.
	EstimatedSpeedup float64
	// Stats are the ILP statistics (Table I).
	Stats core.Stats
	// WallTime is the parallelization wall-clock time.
	WallTime time.Duration
}

// Evaluate runs one approach on a prepared benchmark and measures it on
// the simulator.
func Evaluate(p *Prepared, pf *platform.Platform, sc platform.Scenario, ap core.Approach, cfg core.Config) (*Measured, error) {
	mainClass := sc.MainClass(pf)
	start := time.Now() //repolint:allow timenow (phase-duration telemetry only)
	res, err := core.Parallelize(p.Graph, pf, mainClass, ap, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: parallelize: %w", p.Bench.Name, err)
	}
	wall := time.Since(start)
	sim := mpsoc.New(pf, ap == core.Homogeneous)
	meas, err := sim.Run(res.Best, mainClass)
	if err != nil {
		return nil, fmt.Errorf("%s: simulate: %w", p.Bench.Name, err)
	}
	seq := sim.SequentialBaseline(p.Graph, mainClass)
	return &Measured{
		Speedup:          mpsoc.Speedup(seq, meas.MakespanNs),
		EstimatedSpeedup: res.EstimatedSpeedup(p.Graph),
		Stats:            res.Stats,
		WallTime:         wall,
	}, nil
}

// SpeedupRow is one bar pair of a speedup figure.
type SpeedupRow struct {
	Benchmark string
	Homo      float64
	Hetero    float64
}

// Figure is a regenerated speedup chart.
type Figure struct {
	ID       string
	Title    string
	Platform *platform.Platform
	Scenario platform.Scenario
	Limit    float64 // theoretical maximum (the dashed line)
	Rows     []SpeedupRow
}

// Averages returns the mean homo and hetero speedups.
func (f *Figure) Averages() (homo, hetero float64) {
	if len(f.Rows) == 0 {
		return 0, 0
	}
	for _, r := range f.Rows {
		homo += r.Homo
		hetero += r.Hetero
	}
	n := float64(len(f.Rows))
	return homo / n, hetero / n
}

// FigureSpec describes one shipped evaluation figure: which platform
// and scenario it is measured on. It is the single source of the
// paper's platform/scenario pairings, shared by this package's figure
// regeneration, cmd/paperrepro and the design-space exploration engine
// (internal/dse), so Config A/B wiring exists exactly once.
type FigureSpec struct {
	// ID is the paper's figure identifier ("7a", "7b", "8a", "8b").
	ID string
	// Title is the human-readable description.
	Title string
	// Platform constructs a fresh platform instance for the figure.
	Platform func() *platform.Platform
	// Scenario selects the main-core class.
	Scenario platform.Scenario
}

var figures = []FigureSpec{
	{"7a", "Config (A) 100/250/500/500 MHz, accelerator scenario", platform.ConfigA, platform.ScenarioAccelerator},
	{"7b", "Config (A) 100/250/500/500 MHz, slower-cores scenario", platform.ConfigA, platform.ScenarioSlowerCores},
	{"8a", "Config (B) 200/200/500/500 MHz, accelerator scenario", platform.ConfigB, platform.ScenarioAccelerator},
	{"8b", "Config (B) 200/200/500/500 MHz, slower-cores scenario", platform.ConfigB, platform.ScenarioSlowerCores},
}

// Figures returns the shipped figure specifications in paper order.
func Figures() []FigureSpec {
	return append([]FigureSpec(nil), figures...)
}

// FigureByID looks up one figure specification.
func FigureByID(id string) (FigureSpec, bool) {
	for _, spec := range figures {
		if spec.ID == id {
			return spec, true
		}
	}
	return FigureSpec{}, false
}

// FigureIDs lists the valid figure identifiers in paper order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, spec := range figures {
		ids[i] = spec.ID
	}
	return ids
}

// RunFigure regenerates one figure over the given benchmarks (all when
// names is empty).
func RunFigure(id string, names []string, cfg core.Config) (*Figure, error) {
	spec, ok := FigureByID(id)
	if !ok {
		return nil, fmt.Errorf("unknown figure %q (want one of %v)", id, FigureIDs())
	}
	pf := spec.Platform()
	fig := &Figure{
		ID:       id,
		Title:    spec.Title,
		Platform: pf,
		Scenario: spec.Scenario,
		Limit:    pf.TheoreticalSpeedup(spec.Scenario.MainClass(pf)),
	}
	for _, b := range selectBenchmarks(names) {
		p, err := Prepare(b)
		if err != nil {
			return nil, err
		}
		hom, err := Evaluate(p, pf, spec.Scenario, core.Homogeneous, cfg)
		if err != nil {
			return nil, err
		}
		het, err := Evaluate(p, pf, spec.Scenario, core.Heterogeneous, cfg)
		if err != nil {
			return nil, err
		}
		fig.Rows = append(fig.Rows, SpeedupRow{
			Benchmark: b.Name,
			Homo:      hom.Speedup,
			Hetero:    het.Speedup,
		})
	}
	return fig, nil
}

func selectBenchmarks(names []string) []*bench.Benchmark {
	if len(names) == 0 {
		return bench.All()
	}
	var out []*bench.Benchmark
	for _, n := range names {
		if b := bench.ByName(n); b != nil {
			out = append(out, b)
		}
	}
	return out
}

// Render prints the figure as an ASCII bar chart with the dashed
// theoretical-limit line, mirroring the paper's layout.
func (f *Figure) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&sb, "theoretical maximum speedup: %.2fx (dashed)\n\n", f.Limit)
	const width = 48
	scale := width / f.Limit
	bar := func(v float64) string {
		n := int(v*scale + 0.5)
		if n > width+8 {
			n = width + 8
		}
		if n < 0 {
			n = 0
		}
		return strings.Repeat("#", n)
	}
	limitCol := int(f.Limit*scale + 0.5)
	for _, r := range f.Rows {
		homoBar := bar(r.Homo)
		hetBar := bar(r.Hetero)
		homoBar = padWithLimit(homoBar, limitCol)
		hetBar = padWithLimit(hetBar, limitCol)
		fmt.Fprintf(&sb, "%-12s homog. %6.2fx |%s\n", r.Benchmark, r.Homo, homoBar)
		fmt.Fprintf(&sb, "%-12s heter. %6.2fx |%s\n", "", r.Hetero, hetBar)
	}
	h, t := f.Averages()
	fmt.Fprintf(&sb, "\naverage: homogeneous %.2fx, heterogeneous %.2fx\n", h, t)
	return sb.String()
}

// padWithLimit inserts the dashed limit marker at the limit column.
func padWithLimit(bar string, col int) string {
	if len(bar) >= col {
		return bar
	}
	return bar + strings.Repeat(" ", col-len(bar)) + "¦"
}

// TableRow is one line of Table I.
type TableRow struct {
	Benchmark  string
	HomoTime   time.Duration
	HomoILPs   int
	HomoVars   int
	HomoCons   int
	HeteroTime time.Duration
	HeteroILPs int
	HeteroVars int
	HeteroCons int
	// HomoStats and HeteroStats carry the complete solver telemetry
	// behind the summary columns above (branch-and-bound effort,
	// incumbents, truncations, per-region records).
	HomoStats   core.Stats
	HeteroStats core.Stats
}

// Factors returns the hetero/homo ratios (time, ILPs, vars, constraints).
func (r *TableRow) Factors() (ft, fi, fv, fc float64) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return div(float64(r.HeteroTime), float64(r.HomoTime)),
		div(float64(r.HeteroILPs), float64(r.HomoILPs)),
		div(float64(r.HeteroVars), float64(r.HomoVars)),
		div(float64(r.HeteroCons), float64(r.HomoCons))
}

// Table is the regenerated Table I.
type Table struct {
	Platform *platform.Platform
	Rows     []TableRow
}

// RunTableI regenerates the ILP statistics comparison on configuration A
// (accelerator scenario main class, as for Figure 7).
func RunTableI(names []string, cfg core.Config) (*Table, error) {
	pf := platform.ConfigA()
	sc := platform.ScenarioAccelerator
	tbl := &Table{Platform: pf}
	for _, b := range selectBenchmarks(names) {
		p, err := Prepare(b)
		if err != nil {
			return nil, err
		}
		hom, err := Evaluate(p, pf, sc, core.Homogeneous, cfg)
		if err != nil {
			return nil, err
		}
		het, err := Evaluate(p, pf, sc, core.Heterogeneous, cfg)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, TableRow{
			Benchmark:   b.Name,
			HomoTime:    hom.WallTime,
			HomoILPs:    hom.Stats.NumILPs,
			HomoVars:    hom.Stats.NumVars,
			HomoCons:    hom.Stats.NumConstraints,
			HeteroTime:  het.WallTime,
			HeteroILPs:  het.Stats.NumILPs,
			HeteroVars:  het.Stats.NumVars,
			HeteroCons:  het.Stats.NumConstraints,
			HomoStats:   hom.Stats,
			HeteroStats: het.Stats,
		})
	}
	return tbl, nil
}

// Averages returns column means over the table rows.
func (t *Table) Averages() TableRow {
	avg := TableRow{Benchmark: "average"}
	n := len(t.Rows)
	if n == 0 {
		return avg
	}
	for _, r := range t.Rows {
		avg.HomoTime += r.HomoTime
		avg.HomoILPs += r.HomoILPs
		avg.HomoVars += r.HomoVars
		avg.HomoCons += r.HomoCons
		avg.HeteroTime += r.HeteroTime
		avg.HeteroILPs += r.HeteroILPs
		avg.HeteroVars += r.HeteroVars
		avg.HeteroCons += r.HeteroCons
	}
	avg.HomoTime /= time.Duration(n)
	avg.HomoILPs /= n
	avg.HomoVars /= n
	avg.HomoCons /= n
	avg.HeteroTime /= time.Duration(n)
	avg.HeteroILPs /= n
	avg.HeteroVars /= n
	avg.HeteroCons /= n
	return avg
}

// RenderSolverStats prints a markdown table with the per-benchmark
// solver telemetry (branch-and-bound nodes, simplex iterations,
// incumbents, truncations, optimality) behind the Table I summary, one
// row per (benchmark, approach).
func (t *Table) RenderSolverStats() string {
	var sb strings.Builder
	sb.WriteString("| benchmark | approach | ILPs | B&B nodes | LP iters | incumbents | timeouts | node caps | optimal | max gap | solve time |\n")
	sb.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	emit := func(bench, approach string, st core.Stats) {
		fmt.Fprintf(&sb, "| %s | %s | %d | %d | %d | %d | %d | %d | %d/%d | %.2f%% | %s |\n",
			bench, approach, st.NumILPs, st.BBNodes, st.LPIters, st.Incumbents,
			st.Timeouts, st.NodeCapHits, st.ProvedOptimal, st.NumILPs,
			100*st.MaxGap, st.SolveTime.Round(time.Microsecond))
	}
	for _, r := range t.Rows {
		emit(r.Benchmark, "homogeneous", r.HomoStats)
		emit(r.Benchmark, "heterogeneous", r.HeteroStats)
	}
	return sb.String()
}

// Render prints Table I in the paper's three-block layout.
func (t *Table) Render() string {
	var sb strings.Builder
	sb.WriteString("Table I: statistics of the ILP-based parallelization algorithms\n\n")
	fmt.Fprintf(&sb, "%-12s | %10s %6s %8s %8s | %10s %6s %8s %8s | %6s %6s %6s %6s\n",
		"Benchmark", "HomoTime", "#ILPs", "#Var", "#Constr",
		"HetTime", "#ILPs", "#Var", "#Constr",
		"fTime", "fILPs", "fVar", "fCon")
	sb.WriteString(strings.Repeat("-", 128) + "\n")
	emit := func(r TableRow) {
		ft, fi, fv, fc := r.Factors()
		fmt.Fprintf(&sb, "%-12s | %10s %6d %8d %8d | %10s %6d %8d %8d | %5.1fx %5.1fx %5.1fx %5.1fx\n",
			r.Benchmark,
			r.HomoTime.Round(time.Millisecond), r.HomoILPs, r.HomoVars, r.HomoCons,
			r.HeteroTime.Round(time.Millisecond), r.HeteroILPs, r.HeteroVars, r.HeteroCons,
			ft, fi, fv, fc)
	}
	for _, r := range t.Rows {
		emit(r)
	}
	sb.WriteString(strings.Repeat("-", 128) + "\n")
	emit(t.Averages())
	return sb.String()
}
