// Command heteropardse explores the heterogeneous-platform design
// space: it generates candidate MPSoC configurations (clock mixes,
// per-class core counts, main-core scenarios), runs the full
// parallelize→simulate pipeline for every (platform, benchmark) pair on
// a worker pool, and reports the Pareto-optimal configurations under
// (speedup, cores, energy) next to a genetic-algorithm mapping baseline.
//
// Usage:
//
//	heteropardse [flags]
//
// Flags:
//
//	-space default|small  platform space to sweep (default default)
//	-points n          sample size drawn from the space (default 200)
//	-benchmarks a,b,c  bundled benchmarks to sweep (default mult_10,fir_256,iir_4; "all" for every one)
//	-seed n            sweep seed; equal seeds give byte-identical output (default 1)
//	-cache dir         persist evaluation outcomes to dir (warm runs hit instead of re-solving)
//	-out csv|md|json   report format (default md)
//	-o file            write the report to file instead of stdout
//	-workers n         worker-pool size (default NumCPU)
//	-ilp-nodes n       per-ILP branch-and-bound node budget (default 60; ~20 for big sweeps)
//	-max-tasks n       per-region task-bound cap (default 4)
//	-region-workers n  per-evaluation region-solve workers (default 1 = sequential)
//	-store-cap n       region-solve store capacity (0 = default sizing)
//	-stats             print cache and solver statistics to stderr
//	-trace out.json    write a Chrome trace_event file of the sweep
//	-metrics-addr a    serve live /metrics, /healthz and /debug/pprof/ on a
//	-events f.jsonl    stream structured telemetry events to a JSONL file
//	-v                 log spans to stderr as they complete
//
// Telemetry is strictly out-of-band: the sweep report is byte-identical
// with -metrics-addr/-events on or off. All human-readable telemetry
// shares one serialized stderr writer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/clitelemetry"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/solstore"
)

func main() {
	var (
		spaceFlag  = flag.String("space", "default", "platform space: default (6 clocks, ≤3 classes, ≤8 cores) or small (quick smoke sweep)")
		pointsFlag = flag.Int("points", 200, "number of design points sampled from the space (0 = all)")
		benchFlag  = flag.String("benchmarks", "mult_10,fir_256,iir_4", "comma-separated bundled benchmarks, or \"all\"")
		seedFlag   = flag.Int64("seed", 1, "sweep seed (sampling and GA); equal seeds give byte-identical output")
		cacheFlag  = flag.String("cache", "", "cache directory for evaluation outcomes (empty = in-memory only)")
		outFlag    = flag.String("out", "md", "report format: csv, md or json")
		oFlag      = flag.String("o", "", "write the report to this file instead of stdout")
		workers    = flag.Int("workers", 0, "worker-pool size (0 = NumCPU)")
		ilpNodes   = flag.Int("ilp-nodes", 0, "per-ILP branch-and-bound node budget (0 = sweep default 60)")
		maxTasks   = flag.Int("max-tasks", 0, "per-region task-bound cap (0 = sweep default 4; raise for better plans on big platforms, at steep solve cost)")
		regWorkers = flag.Int("region-workers", 0, "per-evaluation region-solve workers (0/1 = sequential; output is byte-identical per width)")
		storeCap   = flag.Int("store-cap", 0, "region-solve store capacity shared across all sweep points (0 = default sizing)")
		statsFlag  = flag.Bool("stats", false, "print cache and solver statistics to stderr")
		traceFlag  = flag.String("trace", "", "write a Chrome trace_event JSON file of the sweep")
		metricsAdr = flag.String("metrics-addr", "", "serve live telemetry (/metrics Prometheus text, /healthz, /events, /debug/pprof/) on this address, e.g. localhost:9090")
		eventsFlag = flag.String("events", "", "stream structured telemetry events (span open/close, solver incumbents, store evictions, worker stalls) to this JSONL file")
		verbose    = flag.Bool("v", false, "log tracing spans to stderr as they complete")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if !dse.ValidFormat(*outFlag) {
		fatalf("unknown output format %q (want csv, md or json)", *outFlag)
	}
	if *pointsFlag < 0 {
		fatalf("-points must be >= 0 (0 sweeps the whole space)")
	}

	var spec dse.SpaceSpec
	switch *spaceFlag {
	case "default":
		spec = dse.DefaultSpace()
	case "small":
		spec = dse.SpaceSpec{
			ClocksMHz:        []float64{100, 250, 500},
			MaxClasses:       2,
			MaxCoresPerClass: 2,
			MinTotalCores:    2,
			MaxTotalCores:    4,
		}
	default:
		fatalf("unknown space %q (want default or small)", *spaceFlag)
	}
	points := spec.Generate(*pointsFlag, *seedFlag)

	var benches []*bench.Benchmark
	if *benchFlag == "all" {
		benches = bench.All()
	} else {
		for _, name := range strings.Split(*benchFlag, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			b := bench.ByName(name)
			if b == nil {
				fatalf("unknown benchmark %q (bundled: %s)", name, strings.Join(benchNames(), ", "))
			}
			benches = append(benches, b)
		}
	}
	if len(benches) == 0 {
		fatalf("no benchmarks selected")
	}

	// All human-readable telemetry (progress lines, -stats tables, -v
	// span lines) shares one serialized stderr writer so concurrent
	// producers interleave at line granularity. Stdout carries only the
	// report. The -metrics-addr/-events sinks are the shared
	// clitelemetry wiring.
	observer := &obs.Observer{Metrics: obs.NewRegistry()}
	tele, err := clitelemetry.Start("heteropardse", *metricsAdr, *eventsFlag, observer.Metrics)
	if err != nil {
		fatalf("%v", err)
	}
	defer tele.Close()
	telew := tele.Out
	observer.Events = tele.Events
	if *traceFlag != "" || *verbose || *eventsFlag != "" {
		observer.Tracer = obs.NewTracer()
		if *verbose {
			observer.Tracer.SetLogger(telew)
		}
	}
	observer.Tracer.SetEvents(observer.Events)

	var workloads []*dse.Workload
	prepStart := time.Now() //repolint:allow timenow (progress reporting only)
	for _, b := range benches {
		p, err := experiments.Prepare(b)
		if err != nil {
			fatalf("%v", err)
		}
		workloads = append(workloads, dse.PrepareWorkload(p))
	}
	fmt.Fprintf(telew, "heteropardse: sweeping %d points x %d benchmarks (%d evaluations, seed %d)\n",
		len(points), len(workloads), len(points)*len(workloads), *seedFlag)

	cfg := dse.SweepConfig()
	if *ilpNodes > 0 {
		cfg.MaxILPNodes = *ilpNodes
	}
	if *maxTasks > 0 {
		cfg.MaxTasksPerRegion = *maxTasks
	}
	if *regWorkers > 0 {
		cfg.RegionWorkers = *regWorkers
	}
	// The whole-solution cache and the region-solve store share one
	// bounded arena; the engine threads it through every evaluation so
	// neighboring points reuse region subproblems.
	if err := clitelemetry.ValidateStoreCap(*storeCap, "selects the default sizing"); err != nil {
		fatalf("%v", err)
	}
	var store *solstore.Store
	if *storeCap > 0 {
		store = solstore.New(solstore.Options{Capacity: *storeCap, Metrics: observer.M(), Events: observer.E()})
	}
	eng := &dse.Engine{
		Workers: *workers,
		Config:  cfg,
		Seed:    *seedFlag,
		Cache:   dse.NewCacheOn(store, *cacheFlag, observer.M()),
		Obs:     observer,
	}

	// Ctrl-C cancels the sweep at the next job boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sweepStart := time.Now() //repolint:allow timenow (progress reporting only)
	res, err := eng.Run(ctx, points, workloads)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(telew, "heteropardse: prepared in %v, swept in %v, cache %d hits / %d misses (%.0f%% hit rate)\n",
		sweepStart.Sub(prepStart).Round(time.Millisecond),
		time.Since(sweepStart).Round(time.Millisecond), //repolint:allow timenow
		res.CacheHits, res.CacheMisses, 100*res.HitRate())
	fmt.Fprintf(telew, "heteropardse: region store %d hits / %d misses / %d dedups (%.0f%% hit rate)\n",
		res.RegionHits, res.RegionMisses, res.RegionDedups, 100*res.RegionHitRate())

	report, err := res.Render(*outFlag)
	if err != nil {
		fatalf("%v", err)
	}
	if *oFlag != "" {
		if err := os.WriteFile(*oFlag, []byte(report), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(telew, "heteropardse: report written to %s\n", *oFlag)
	} else {
		fmt.Print(report)
	}

	if *statsFlag {
		fmt.Fprintf(telew, "\n--- metrics ---\n%s", observer.M().RenderTable())
		d := observer.M().Histogram("dse.point.duration")
		if d.Count() > 0 {
			fmt.Fprintf(telew, "point eval: min=%v mean=%v max=%v over %d cold evaluations\n",
				d.Min().Round(time.Microsecond), d.Mean().Round(time.Microsecond),
				d.Max().Round(time.Microsecond), d.Count())
		}
	}
	if *traceFlag != "" {
		if err := observer.Tracer.WriteChromeFile(*traceFlag); err != nil {
			fatalf("trace: %v", err)
		}
		fmt.Fprintf(telew, "heteropardse: chrome trace written to %s\n", *traceFlag)
	}
}

func benchNames() []string {
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "heteropardse: "+format+"\n", args...)
	os.Exit(1)
}
