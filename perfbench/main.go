// Command perfbench is the repository's end-to-end benchmark. It drives
// the parallelizer only through its public entry points — the
// heteropar.Parallelize facade, the heteropard HTTP API (internal/serve)
// and the design-space-exploration engine (internal/dse) — on seeded
// inputs, checks every output, and prints one JSON result line:
//
//	perfbench --workload plan_cold|serve_edit|dse_sweep --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate run replays each operation layer by layer under
// the benchmark's own spans and reports the per-layer metrics. See
// README.md for why each workload exists and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/solstore"
)

// Set-up is timed in two windows per untraced run, one before the timed
// phase and one after it, and setup_s is the median of all their
// repeats. The machine's speed moves in phases of 5–30 s, so repeats
// close together share one phase; two windows a run apart sample two.
// A window repeats the set-up at least minSetupRepeats times and until
// minSetupTime of it has been timed (at most maxSetupRepeats times), so
// a short set-up is sampled as long as a long one.
const (
	minSetupRepeats = 2
	maxSetupRepeats = 15
	minSetupTime    = 2500 * time.Millisecond
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	ledger            []ledgerEntry
	setups            []float64 // set-up durations in seconds
}

// check records a failed output check; any failed check makes the run
// incorrect.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setPercentile records the q-quantile of xs, or flags the run when the
// sample is too small for that percentile (see percentileOK).
func (r *run) setPercentile(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	r.check(ok, "%s: %d samples leave fewer than %d beyond the %g quantile", name, len(xs), minBeyond, q)
	fmt.Fprintf(os.Stderr, "perfbench: %s = %.4f ms over %d samples\n", name, v, len(xs))
	r.set(name, "ms", v)
}

// timeSetup builds the run's set-up state with build and keeps the
// last repeat's. An untraced run times a window of repeats; earlier
// repeats are released with the release function build returned.
func (r *run) timeSetup(build func() (release func(), err error)) error {
	return r.setupWindow(build, true)
}

// retimeSetup times the second set-up window of an untraced run, after
// the timed phase, releasing every repeat, and records setup_s. The
// caller has released the state timeSetup kept.
func (r *run) retimeSetup(build func() (release func(), err error)) error {
	if r.trace {
		return nil
	}
	if err := r.setupWindow(build, false); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up repeats (s): %.3f\n", r.setups)
	r.set("setup_s", "s", median(r.setups))
	return nil
}

// setupWindow runs one window of set-ups (a single one in a traced
// run). Each repeat starts after a forced collection, so it does not pay
// for its predecessor's garbage.
func (r *run) setupWindow(build func() (release func(), err error), keep bool) error {
	var total time.Duration
	var prev func()
	for i := 0; i < minSetupRepeats || (total < minSetupTime && i < maxSetupRepeats); i++ {
		if prev != nil {
			prev()
		}
		settle()
		t0 := now()
		rel, err := build()
		d := since(t0)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		total += d
		r.setups = append(r.setups, d.Seconds())
		prev = rel
		if r.trace {
			break
		}
	}
	if !keep && prev != nil {
		prev()
	}
	return nil
}

// endToEnd and perLayer list every metric a run reports, with its
// unit: an untraced run reports exactly the first set, a traced run
// exactly the second. Metrics a workload has no layer for read 0.
var endToEnd = map[string]string{
	"ops_per_s":          "1/s",
	"cold_ms_p50":        "ms",
	"warm_ms_p50":        "ms",
	"efficiency_geomean": "ratio",
	"ok_share":           "share",
	"peak_rss_mb":        "MB",
	"setup_s":            "s",
}

var perLayer = map[string]string{
	"minic.compile_ms":       "ms/op",
	"interp.profile_ms":      "ms/op",
	"htg.build_ms":           "ms/op",
	"core.parallelize_ms":    "ms/op",
	"analysis.audit_ms":      "ms/op",
	"taskspec.build_ms":      "ms/op",
	"mpsoc.simulate_ms":      "ms/op",
	"dse.ga_ms":              "ms/op",
	"trace.op_ms":            "ms/op",
	"trace.overhead_ms":      "ms/op",
	"trace.layer_sum_gap":    "share",
	"interp.stmts":           "count/op",
	"htg.nodes":              "count/op",
	"htg.edges_dropped":      "count/op",
	"ilp.solves":             "count/op",
	"ilp.bb_nodes":           "count/op",
	"ilp.lp_iters":           "count/op",
	"ilp.timeouts":           "count/op",
	"ilp.proved_optimal":     "count/op",
	"ilp.no_solution":        "count/op",
	"ilp.useful_share":       "share",
	"solstore.hits":          "count/op",
	"solstore.misses":        "count/op",
	"solstore.hit_ratio":     "share",
	"serve.edit_overhead_ms": "ms",
	"serve.hit_ms_p99":       "ms",
	"serve.edit_ms_p90":      "ms",
	"dse.evals":              "count",
	"dse.cache_hits":         "count",
	"dse.region_hit_ratio":   "share",
	"go.alloc_mb_per_op":     "MB/op",
}

// expected returns the metric names and units a run in this mode must
// report.
func (r *run) expected() map[string]string {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// checkMetricSet reports a metric that is missing, extra or carries the
// wrong unit. Such a run is a defect of the benchmark itself.
func (r *run) checkMetricSet() error {
	want := r.expected()
	for n, u := range want {
		m, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s missing", n)
		}
		if m.Unit != u {
			return fmt.Errorf("metric %s has unit %s, want %s", n, m.Unit, u)
		}
	}
	for n := range r.metrics {
		if _, ok := want[n]; !ok {
			return fmt.Errorf("unexpected metric %s", n)
		}
	}
	return nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"plan_cold":  planCold,
	"serve_edit": serveEdit,
	"dse_sweep":  dseSweep,
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 30, "measured wall time per run")
	trace := flag.Int("trace", 0, "1 replays each operation layer by layer and reports per-layer metrics")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seed N --seconds S>0 --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		metrics:  map[string]metric{},
	}
	if r.trace {
		for n, u := range perLayer {
			r.set(n, u, 0)
		}
	}
	if err := drive(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	code, err := codeID()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: code id:", err)
		os.Exit(1)
	}
	if err := r.checkLedger(ledgerDir, code); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	if !r.trace {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: peak RSS:", err)
			os.Exit(1)
		}
		r.set("peak_rss_mb", "MB", rss)
	}
	if err := r.checkMetricSet(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	buf, err := json.Marshal(result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// work is a snapshot of the deterministic work counters the program
// exposes: solver counters from the metrics registry (incremented only
// by real solves, never by store replays) and region-store traffic.
type work struct {
	Solves, Nodes, LPIters, Timeouts int64
	// StoreHits counts region results reused, whether found in the
	// store or joined in flight (the split between the two depends on
	// goroutine timing; their sum does not). StoreMisses counts results
	// computed.
	StoreHits, StoreMisses int64
}

func snapshot(reg *obs.Registry, st *solstore.Store) work {
	s := st.Stats()
	return work{
		Solves:      reg.Counter("ilp.solves").Value(),
		Nodes:       reg.Counter("ilp.bb_nodes").Value(),
		LPIters:     reg.Counter("ilp.lp_iters").Value(),
		Timeouts:    reg.Counter("ilp.timeouts").Value(),
		StoreHits:   s.Hits + s.Dedups,
		StoreMisses: s.Misses,
	}
}

func (w work) minus(o work) work {
	return work{
		Solves:      w.Solves - o.Solves,
		Nodes:       w.Nodes - o.Nodes,
		LPIters:     w.LPIters - o.LPIters,
		Timeouts:    w.Timeouts - o.Timeouts,
		StoreHits:   w.StoreHits - o.StoreHits,
		StoreMisses: w.StoreMisses - o.StoreMisses,
	}
}

func (w work) plus(o work) work {
	return work{
		Solves:      w.Solves + o.Solves,
		Nodes:       w.Nodes + o.Nodes,
		LPIters:     w.LPIters + o.LPIters,
		Timeouts:    w.Timeouts + o.Timeouts,
		StoreHits:   w.StoreHits + o.StoreHits,
		StoreMisses: w.StoreMisses + o.StoreMisses,
	}
}

// setWork reports the per-layer solver and store counters per
// operation.
func (r *run) setWork(w work, ops float64) {
	r.set("ilp.solves", "count/op", float64(w.Solves)/ops)
	r.set("ilp.bb_nodes", "count/op", float64(w.Nodes)/ops)
	r.set("ilp.lp_iters", "count/op", float64(w.LPIters)/ops)
	r.set("ilp.timeouts", "count/op", float64(w.Timeouts)/ops)
	r.set("solstore.hits", "count/op", float64(w.StoreHits)/ops)
	r.set("solstore.misses", "count/op", float64(w.StoreMisses)/ops)
	ratio := 0.0
	if n := w.StoreHits + w.StoreMisses; n > 0 {
		ratio = float64(w.StoreHits) / float64(n)
	}
	r.set("solstore.hit_ratio", "share", ratio)
}
