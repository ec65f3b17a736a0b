// Command heteropar parallelizes a sequential mini-C program for a
// heterogeneous MPSoC and reports the extracted tasks, the pre-mapping and
// the simulated speedup.
//
// Usage:
//
//	heteropar [flags] file.c
//	heteropar [flags] -bench mult_10
//
// Flags:
//
//	-platform A|B|file.json  target platform configuration (default A)
//	-scenario acc|slow main core selection (default acc)
//	-approach het|hom  algorithm (default het)
//	-annotate          print the annotated source
//	-spec              print the parallel specification
//	-plan              print the hierarchical task plan
//	-bench name        use a bundled benchmark instead of a file
//	-json              print the canonical machine-readable result document
//	-trace out.json    write a Chrome trace_event file of the run
//	-stats             print per-region solver statistics and metrics
//	-lint              run the static diagnostics and exit
//	-verify            report the race-and-budget audit of every solution
//	-store-cap N       cache region solves in an N-entry store
//	-metrics-addr a    serve live /metrics, /healthz and /debug/pprof/ on a
//	-events f.jsonl    stream structured telemetry events to a JSONL file
//	-v                 log spans to stderr as they complete
//
// Telemetry is strictly out-of-band: -metrics-addr and -events never
// change which solutions are produced, only what is observable while
// they are produced. All human-readable telemetry (-stats tables, -v
// span lines) shares one serialized stderr writer; stdout carries only
// program results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	heteropar "repro"
	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/clitelemetry"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/solstore"
)

func main() {
	var (
		platformFlag = flag.String("platform", "A", "platform configuration: A (100/250/500/500 MHz), B (200/200/500/500 MHz) or a path to a .json platform description")
		scenarioFlag = flag.String("scenario", "acc", "scenario: acc (slow main core) or slow (fast main core)")
		approachFlag = flag.String("approach", "het", "approach: het (heterogeneous) or hom (homogeneous baseline)")
		annotate     = flag.Bool("annotate", false, "print the annotated source")
		spec         = flag.Bool("spec", false, "print the parallel specification")
		plan         = flag.Bool("plan", false, "print the hierarchical task plan")
		gantt        = flag.Bool("gantt", false, "print an ASCII Gantt chart of the simulated execution")
		emitGo       = flag.String("emit-go", "", "write a runnable parallel Go implementation to this file")
		benchFlag    = flag.String("bench", "", "use a bundled benchmark (see -list)")
		jsonFlag     = flag.Bool("json", false, "print the canonical machine-readable result document instead of the summary block (byte-identical to the heteropard daemon's response for the same inputs)")
		list         = flag.Bool("list", false, "list bundled benchmarks")
		traceFlag    = flag.String("trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
		statsFlag    = flag.Bool("stats", false, "print per-region ILP solver statistics and the metrics table")
		lintFlag     = flag.Bool("lint", false, "run the static diagnostics (uninitialized use, array bounds, unused locals, unreachable code) and exit without parallelizing")
		verifyFlag   = flag.Bool("verify", false, "re-run the race-and-budget verifier over every produced solution and print a report")
		storeCapFlag = flag.Int("store-cap", 0, "enable the region-solve store with this entry capacity (0 disables; solves are cached by content address and replayed on repeats)")
		metricsAddr  = flag.String("metrics-addr", "", "serve live telemetry (/metrics Prometheus text, /healthz, /events, /debug/pprof/) on this address, e.g. localhost:9090")
		eventsFlag   = flag.String("events", "", "stream structured telemetry events (span open/close, solver incumbents, store evictions, worker stalls) to this JSONL file")
		verbose      = flag.Bool("v", false, "log tracing spans to stderr as they complete")
	)
	flag.Parse()

	if *list {
		if *benchFlag != "" || flag.NArg() > 0 {
			fatalf("-list does not take a benchmark or file argument")
		}
		for _, b := range bench.All() {
			fmt.Printf("%-12s %s\n", b.Name, b.Description)
		}
		return
	}

	var source, name string
	switch {
	case *benchFlag != "" && flag.NArg() > 0:
		fatalf("both -bench %q and file argument %q given; pass one input", *benchFlag, flag.Arg(0))
	case *benchFlag != "":
		b := bench.ByName(*benchFlag)
		if b == nil {
			fatalf("unknown benchmark %q (use -list)", *benchFlag)
		}
		source, name = b.Source, b.Name
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		source, name = string(data), flag.Arg(0)
	case flag.NArg() > 1:
		fatalf("expected one source file, got %d arguments: %s", flag.NArg(), strings.Join(flag.Args(), " "))
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *lintFlag {
		diags, err := analysis.LintSource(source)
		if err != nil {
			fatal(err)
		}
		errors := 0
		for _, d := range diags {
			fmt.Printf("%s: %s\n", name, d)
			if d.Sev == minic.SevError {
				errors++
			}
		}
		if len(diags) == 0 {
			fmt.Printf("%s: no findings\n", name)
		}
		if errors > 0 {
			os.Exit(1)
		}
		return
	}

	opts := heteropar.Options{}
	switch {
	case strings.EqualFold(*platformFlag, "A"):
		opts.Platform = heteropar.PlatformA()
	case strings.EqualFold(*platformFlag, "B"):
		opts.Platform = heteropar.PlatformB()
	case strings.HasSuffix(*platformFlag, ".json"):
		pf, err := platform.LoadFile(*platformFlag)
		if err != nil {
			fatal(err)
		}
		opts.Platform = pf
	default:
		fatalf("unknown platform %q (want A, B or a path to a .json platform description)", *platformFlag)
	}
	switch *scenarioFlag {
	case "acc":
		opts.Scenario = heteropar.Accelerator
	case "slow":
		opts.Scenario = heteropar.SlowerCores
	default:
		fatalf("unknown scenario %q", *scenarioFlag)
	}
	switch *approachFlag {
	case "het":
		opts.Approach = heteropar.Heterogeneous
	case "hom":
		opts.Approach = heteropar.Homogeneous
	default:
		fatalf("unknown approach %q", *approachFlag)
	}

	if *traceFlag != "" || *statsFlag || *verbose || *metricsAddr != "" || *eventsFlag != "" {
		opts.Tracer = obs.NewTracer()
		opts.Metrics = obs.NewRegistry()
	}
	tele, err := clitelemetry.Start("heteropar", *metricsAddr, *eventsFlag, opts.Metrics)
	if err != nil {
		fatal(err)
	}
	defer tele.Close()
	opts.Events = tele.Events
	opts.Tracer.SetEvents(tele.Events)
	if *verbose {
		opts.Tracer.SetLogger(tele.Out)
	}
	if err := clitelemetry.ValidateStoreCap(*storeCapFlag, "disables the store"); err != nil {
		fatal(err)
	}
	if *storeCapFlag > 0 {
		opts.Store = solstore.New(solstore.Options{
			Capacity: *storeCapFlag,
			Metrics:  opts.Metrics,
			Events:   tele.Events,
		})
	}

	rep, err := heteropar.Parallelize(source, opts)
	if err != nil {
		fatal(err)
	}

	if *jsonFlag {
		// The canonical machine-readable document: the same
		// serve.Result encoding the heteropard daemon returns, so the
		// two outputs are byte-identical for equal inputs.
		os.Stdout.Write(serve.ResultOf(rep, name, *scenarioFlag, *approachFlag).Encode())
	} else {
		fmt.Printf("program:    %s\n", name)
		fmt.Printf("platform:   %s\n", opts.Platform)
		fmt.Printf("scenario:   %s (main class %s)\n", opts.Scenario,
			opts.Platform.Classes[rep.MainClass].Name)
		fmt.Printf("approach:   %s\n", opts.Approach)
		fmt.Printf("tasks:      %d\n", rep.NumTasks())
		fmt.Printf("ILPs:       %d (%d vars, %d constraints, %v solve time)\n",
			rep.Result.Stats.NumILPs, rep.Result.Stats.NumVars,
			rep.Result.Stats.NumConstraints, rep.Result.Stats.SolveTime.Round(1e6))
		fmt.Printf("sequential: %.0f ns on the main core\n", rep.SequentialNs)
		fmt.Printf("parallel:   %.0f ns measured on the MPSoC simulator\n", rep.MeasuredMakespanNs)
		fmt.Printf("speedup:    %.2fx measured (%.2fx estimated, %.2fx theoretical limit)\n",
			rep.MeasuredSpeedup, rep.EstimatedSpeedup, rep.TheoreticalLimit())
	}

	if *verifyFlag {
		audited := 0
		for _, set := range rep.Result.Sets {
			audited += len(set.All())
		}
		violations := analysis.VerifyResult(rep.Result)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "heteropar: verify: %s\n", v)
		}
		if len(violations) > 0 {
			os.Exit(1)
		}
		if !*jsonFlag { // keep -json stdout a pure document
			fmt.Printf("verified:   %d solution(s) across %d node set(s), no violations\n",
				audited, len(rep.Result.Sets))
		}
	}

	if *statsFlag {
		renderTelemetry(tele.Out, rep.SolverStatsTable(),
			resolveStoreStats(opts.Store), opts.Metrics.RenderTable())
	}
	if *traceFlag != "" {
		if err := opts.Tracer.WriteChromeFile(*traceFlag); err != nil {
			fatalf("trace: %v", err)
		}
		fmt.Printf("chrome trace written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceFlag)
	}
	if *plan {
		fmt.Printf("\n--- task plan ---\n%s", rep.PlanSummary())
	}
	if *gantt {
		fmt.Printf("\n--- simulated timeline ---\n%s", rep.Gantt(96))
	}
	if *spec {
		fmt.Printf("\n--- parallel specification ---\n%s", rep.ParallelSpec())
	}
	if *annotate {
		fmt.Printf("\n--- annotated source ---\n%s", rep.AnnotatedSource())
	}
	if *emitGo != "" {
		src, err := rep.GenerateGo()
		if err != nil {
			fatalf("emit-go: %v", err)
		}
		if err := os.WriteFile(*emitGo, []byte(src), 0o644); err != nil {
			fatalf("emit-go: %v", err)
		}
		fmt.Printf("\nparallel Go implementation written to %s (run with `go run %s`)\n", *emitGo, *emitGo)
	}
}

// fatal exits on err. The facade's errors already carry the
// "heteropar: " prefix, so errLine prints it once whatever the source.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, errLine(err))
	os.Exit(1)
}

// errLine is err's message behind exactly one "heteropar: " prefix.
func errLine(err error) string {
	return "heteropar: " + strings.TrimPrefix(err.Error(), "heteropar: ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "heteropar: "+format+"\n", args...)
	os.Exit(1)
}
