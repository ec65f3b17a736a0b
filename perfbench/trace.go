package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/htg"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/mpsoc"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/taskspec"
)

// layerSumTolerance bounds how far the summed layer self-times of the
// traced operations may lie from the time the same operations take
// through the public entry point, untraced, as a share of the latter.
// Both sides are timed on the same inputs back to back; the tolerance
// covers the machine's speed changing between the two (see README.md).
const layerSumTolerance = 0.15

// layers are the spans the traced replica records, named after the
// modules they call into, in pipeline order.
var layers = []string{
	"minic.compile", "interp.profile", "htg.build", "core.parallelize",
	"analysis.audit", "taskspec.build", "mpsoc.simulate", "dse.ga",
}

// span is one recorded interval; parent is the index of the enclosing
// span or -1.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// recorder keeps the benchmark's spans in memory until the run ends.
type recorder struct {
	spans []span
}

func (rc *recorder) start(name string, parent int) int {
	rc.spans = append(rc.spans, span{name: name, parent: parent, start: now()})
	return len(rc.spans) - 1
}

func (rc *recorder) end(id int) { rc.spans[id].end = now() }

// selfTimes returns each span name's total self time: its spans'
// durations minus the parts their child spans cover.
func (rc *recorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range rc.spans {
		out[s.name] += s.end.Sub(s.start)
		if s.parent >= 0 {
			out[rc.spans[s.parent].name] -= s.end.Sub(s.start)
		}
	}
	return out
}

// opTotal is the summed duration of the root "op" spans.
func (rc *recorder) opTotal() time.Duration {
	var d time.Duration
	for _, s := range rc.spans {
		if s.parent < 0 {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// replicaIn is one plan to replay layer by layer. Either src is set and
// the replica repeats heteropar.Parallelize from the front end on, or
// graph is given (a prepared DSE workload) and the replica repeats one
// dse.Engine evaluation: core, simulation and the genetic-algorithm
// baseline with the engine's seed for the job, without a task spec.
type replicaIn struct {
	src       string
	graph     *htg.Graph
	pf        *platform.Platform
	mainClass int
	cfg       core.Config
	gaSeed    int64
}

// replicaOut is what the replica's layers returned.
type replicaOut struct {
	speedup, gaSpeedup float64
	stmts              int64
	nodes, dropped     int
	optimal, noSolved  int
}

// replica repeats the facade's pipeline one public call at a time, each
// under its own span, with the audit hook taken out of core so that
// core.parallelize and analysis.audit are timed apart. The solver's
// per-solve statuses are read from the program's own ilp-solve spans,
// which only real solves emit (store replays do not).
func replica(rc *recorder, in replicaIn) (replicaOut, error) {
	tr := obs.NewTracer()
	op := rc.start("op", -1)
	out, err := pipeline(rc, op, tr, in)
	rc.end(op)
	if err != nil {
		return out, err
	}
	out.optimal, out.noSolved, err = solveStatuses(tr)
	return out, err
}

// pipeline is the body of replica: the facade's calls under the op
// span.
func pipeline(rc *recorder, op int, tr *obs.Tracer, in replicaIn) (replicaOut, error) {
	var out replicaOut
	g := in.graph
	if g == nil {
		s := rc.start("minic.compile", op)
		prog, err := minic.Compile(in.src)
		rc.end(s)
		if err != nil {
			return out, err
		}
		s = rc.start("interp.profile", op)
		prof, err := interp.New(prog).Run()
		rc.end(s)
		if err != nil {
			return out, err
		}
		for _, c := range prof.StmtCount {
			out.stmts += c
		}
		s = rc.start("htg.build", op)
		g, err = htg.Build(prog, prof, htg.Config{})
		rc.end(s)
		if err != nil {
			return out, err
		}
	}
	out.nodes = g.NumNodes()
	out.dropped = len(g.Dropped)
	cfg := in.cfg
	cfg.Audit = nil
	cfg.Tracer = tr
	s := rc.start("core.parallelize", op)
	res, err := core.Parallelize(g, in.pf, in.mainClass, core.Heterogeneous, cfg)
	if err == nil && in.graph != nil {
		res.EstimatedSpeedup(g) // the engine's GA-gap reference
	}
	rc.end(s)
	if err != nil {
		return out, err
	}
	s = rc.start("analysis.audit", op)
	err = analysis.AuditResult(res)
	rc.end(s)
	if err != nil {
		return out, err
	}
	if in.graph == nil {
		s = rc.start("taskspec.build", op)
		taskspec.Build(res.Best, res.Platform)
		rc.end(s)
	}
	s = rc.start("mpsoc.simulate", op)
	sim := mpsoc.New(in.pf, false)
	meas, err := sim.Run(res.Best, in.mainClass)
	if err == nil {
		out.speedup = mpsoc.Speedup(sim.SequentialBaseline(g, in.mainClass), meas.MakespanNs)
		sim.SequentialEnergyUJ(g, in.mainClass)
	}
	rc.end(s)
	if err != nil {
		return out, err
	}
	if in.graph != nil {
		s = rc.start("dse.ga", op)
		out.gaSpeedup = dse.RunGA(g, in.pf, in.mainClass, dse.GAConfig{}, in.gaSeed).Speedup
		rc.end(s)
	}
	return out, nil
}

// solveStatuses counts the proved-optimal and solution-less solves in
// the ilp-solve spans a tracer recorded.
func solveStatuses(tr *obs.Tracer) (optimal, none int, err error) {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return 0, 0, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, 0, fmt.Errorf("solver spans: %w", err)
	}
	for _, e := range doc.TraceEvents {
		if e.Name != "ilp-solve" || e.Ph != "B" {
			continue
		}
		switch e.Args["status"] {
		case "optimal":
			optimal++
		case "feasible":
		default:
			none++
		}
	}
	return optimal, none, nil
}

// layerReport accumulates the traced run's per-layer numbers.
type layerReport struct {
	rc         recorder
	ops        int
	stmts      int64
	nodes      int
	dropped    int
	optimal    int
	noSolved   int
	allocBytes uint64
	// untraced is the summed time of the same operations through the
	// public entry point, for the tracing overhead.
	untraced time.Duration
}

// replay runs one replica operation and accounts its allocations.
func (lr *layerReport) replay(in replicaIn) (replicaOut, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := replica(&lr.rc, in)
	runtime.ReadMemStats(&after)
	lr.allocBytes += after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return o, err
	}
	lr.ops++
	lr.stmts += o.stmts
	lr.nodes += o.nodes
	lr.dropped += o.dropped
	lr.optimal += o.optimal
	lr.noSolved += o.noSolved
	return o, nil
}

// finish reports the per-layer metrics and checks that the layer
// self-times add up to the untraced time of the same operations.
func (lr *layerReport) finish(r *run, w work) {
	n := float64(lr.ops)
	if lr.ops == 0 {
		n = 1
	}
	self := lr.rc.selfTimes()
	var layerSum time.Duration
	for _, l := range layers {
		r.set(l+"_ms", "ms/op", ms(self[l])/n)
		layerSum += self[l]
	}
	total := lr.rc.opTotal()
	gap := 0.0
	if lr.untraced > 0 {
		gap = math.Abs(float64(layerSum-lr.untraced)) / float64(lr.untraced)
	}
	r.check(lr.ops == 0 || gap <= layerSumTolerance,
		"layer self-times add up to %.2f ms/op, the untraced ops take %.2f ms/op: %.1f%% apart, tolerance %.0f%%",
		ms(layerSum)/n, ms(lr.untraced)/n, 100*gap, 100*layerSumTolerance)
	r.set("trace.op_ms", "ms/op", ms(total)/n)
	r.set("trace.layer_sum_gap", "share", gap)
	r.set("trace.overhead_ms", "ms/op", (ms(total)-ms(lr.untraced))/n)
	r.set("interp.stmts", "count/op", float64(lr.stmts)/n)
	r.set("htg.nodes", "count/op", float64(lr.nodes)/n)
	r.set("htg.edges_dropped", "count/op", float64(lr.dropped)/n)
	r.set("ilp.proved_optimal", "count/op", float64(lr.optimal)/n)
	r.set("ilp.no_solution", "count/op", float64(lr.noSolved)/n)
	useful := 0.0
	if w.Solves > 0 {
		useful = float64(w.Solves-int64(lr.noSolved)) / float64(w.Solves)
	}
	r.set("ilp.useful_share", "share", useful)
	r.setWork(w, n)
	r.set("go.alloc_mb_per_op", "MB/op", float64(lr.allocBytes)/(1<<20)/n)
	fmt.Fprintf(os.Stderr, "perfbench: traced %d ops: layers %.2f ms/op, traced op %.2f ms/op, untraced %.2f ms/op, gap %.2f%%\n",
		lr.ops, ms(layerSum)/n, ms(total)/n, ms(lr.untraced)/n, 100*gap)
}
