// Command benchjson runs the repository's benchmark suites and writes
// the results as a machine-readable JSON file, so the performance
// trajectory of the solver and the figure pipeline is tracked in-repo
// from one PR to the next.
//
// Two suites are collected:
//
//   - figures: the paper-reproduction benches in the root package
//     (BenchmarkFig7a/7b/8a/8b, BenchmarkTableI) on the default
//     three-benchmark subset, one iteration each — these measure the
//     end-to-end pipeline including every ILP solve.
//   - ilp: the solver microbenches in internal/ilp (root relaxation,
//     the chunk-region MILP, knapsack node throughput, a search-heavy
//     assignment model), run under the normal benchtime so ns/op is
//     stable.
//   - solstore: the region-solve store microbenches (warm lookup, LRU
//     eviction pressure, singleflight, concurrent mixed traffic).
//   - dse: the sweep-point benches (cold vs warm region store, with
//     region hit-rate and dedup-count metrics).
//   - obs: the telemetry-primitive benches (histogram observe, labeled
//     Vec child lookup, snapshot and Prometheus render cost) — the
//     per-call overhead instrumented hot paths pay.
//   - deps: dependence analysis + HTG build with array-section
//     sharpening over the UTDSP suite, with edges-dropped and
//     bytes-saved counters as custom metrics.
//
// Usage:
//
//	go run ./cmd/benchjson [-o BENCH_ilp.json] [-suite figures|ilp|solstore|dse|obs|deps|all]
//	go run ./cmd/benchjson -suite ilp -check BENCH_ilp.json   # CI gate
//
// With -check, no file is written: measured ns/op must stay within
// -tolerance (default 2x) of the committed values, so CI catches
// order-of-magnitude solver regressions without flaking on machine
// noise, and the deterministic work counters (lp-iters/op, nodes/op)
// must equal the committed values exactly, since they do not depend on
// the host. The output schema is documented in EXPERIMENTS.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Record is one benchmark result. NsPerOp is wall time; Metrics holds
// every custom testing.B metric the bench reported (lp-iters/op,
// nodes/op, warm-hit-%, homo-x, ...) plus B/op and allocs/op.
type Record struct {
	Suite   string             `json:"suite"`
	Op      string             `json:"op"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the top-level BENCH_ilp.json document.
type File struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []Record `json:"benchmarks"`
}

type suite struct {
	name  string
	pkg   string
	bench string
	extra []string
}

var suites = []suite{
	{
		name:  "figures",
		pkg:   ".",
		bench: "^Benchmark(Fig7a|Fig7b|Fig8a|Fig8b|TableI)$",
		extra: []string{"-benchtime", "1x"},
	},
	{
		name:  "ilp",
		pkg:   "./internal/ilp/",
		bench: "^Benchmark",
	},
	{
		name:  "solstore",
		pkg:   "./internal/solstore/",
		bench: "^Benchmark",
	},
	{
		name:  "dse",
		pkg:   "./internal/dse/",
		bench: "^BenchmarkSweepPoint",
	},
	{
		name:  "obs",
		pkg:   "./internal/obs/",
		bench: "^Benchmark",
	},
	{
		// Dependence-analysis cost: full HTG construction with section
		// sharpening over the UTDSP suite; edges-dropped and bytes-saved
		// ride along as custom metrics.
		name:  "deps",
		pkg:   "./internal/htg/",
		bench: "^BenchmarkDeps$",
	},
	{
		// Daemon serving overhead: a warm-store 200-request mixed
		// UTDSP load run through internal/serve's loadgen; req/s and
		// latency percentiles ride along as custom metrics.
		name:  "serve",
		pkg:   "./internal/serve/",
		bench: "^BenchmarkServe",
		extra: []string{"-benchtime", "1x"},
	},
}

func main() {
	out := flag.String("o", "BENCH_ilp.json", "output file")
	only := flag.String("suite", "all", "suite to run: figures, ilp, solstore, dse, obs, deps, serve or all")
	check := flag.String("check", "", "compare measured results against this committed file instead of writing; exit 1 on an ns/op regression beyond -tolerance or a changed work counter")
	tolerance := flag.Float64("tolerance", 2.0, "with -check: fail when measured ns/op exceeds the committed value by more than this factor")
	flag.Parse()

	doc := File{
		Schema:    "repro-bench/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, s := range suites {
		if *only != "all" && *only != s.name {
			continue
		}
		recs, err := runSuite(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: suite %s: %v\n", s.name, err)
			os.Exit(1)
		}
		doc.Benchmarks = append(doc.Benchmarks, recs...)
	}
	if *check != "" {
		if err := checkAgainst(*check, doc.Benchmarks, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d results within %.1fx of %s, work counters equal\n", len(doc.Benchmarks), *tolerance, *check)
		return
	}
	buf, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(doc.Benchmarks), *out)
}

// workCounters are the metrics that count deterministic solver work:
// they do not depend on the host, so the gate requires them to match.
var workCounters = []string{"lp-iters/op", "nodes/op"}

// checkAgainst compares measured results with the committed reference:
// every measured op that also appears in the reference (same suite and
// name) must stay within factor x of the committed ns/op, and report
// the committed value of every work counter either side has. New or
// removed benches are reported but never fail the gate.
func checkAgainst(path string, measured []Record, factor float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ref File
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	committed := map[string]Record{}
	for _, r := range ref.Benchmarks {
		committed[r.Suite+"/"+r.Op] = r
	}
	var regressions []string
	for _, r := range measured {
		want, ok := committed[r.Suite+"/"+r.Op]
		if !ok {
			fmt.Printf("benchjson: %s/%s not in %s (new bench; regenerate with make bench-json)\n", r.Suite, r.Op, path)
			continue
		}
		if want.NsPerOp > 0 && r.NsPerOp > want.NsPerOp*factor {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s: %.0f ns/op vs committed %.0f ns/op (%.2fx > %.1fx tolerance)",
				r.Suite, r.Op, r.NsPerOp, want.NsPerOp, r.NsPerOp/want.NsPerOp, factor))
		}
		for _, unit := range workCounters {
			got, gok := r.Metrics[unit]
			exp, eok := want.Metrics[unit]
			if gok != eok || got != exp {
				regressions = append(regressions, fmt.Sprintf(
					"%s/%s: %s %s vs committed %s (work counters must match exactly)",
					r.Suite, r.Op, unit, metricText(got, gok), metricText(exp, eok)))
			}
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}

// metricText renders a possibly missing metric value.
func metricText(v float64, ok bool) string {
	if !ok {
		return "missing"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func runSuite(s suite) ([]Record, error) {
	args := []string{"test", "-run", "^$", "-bench", s.bench, "-benchmem"}
	args = append(args, s.extra...)
	args = append(args, s.pkg)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	fmt.Printf("benchjson: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test: %w\n%s", err, buf.String())
	}
	return parseBench(s.name, buf.Bytes())
}

// trimProcSuffix drops the trailing -GOMAXPROCS go test appends to
// benchmark names, so records compare across machines.
func trimProcSuffix(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseBench reads standard `go test -bench` output lines:
//
//	BenchmarkName-8   100   12345 ns/op   67 lp-iters/op   8 B/op   2 allocs/op
func parseBench(suiteName string, out []byte) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		rec := Record{
			Suite:   suiteName,
			Op:      trimProcSuffix(fields[0]),
			Iters:   iters,
			Metrics: map[string]float64{},
		}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				rec.NsPerOp = v
			default:
				rec.Metrics[unit] = v
			}
		}
		if len(rec.Metrics) == 0 {
			rec.Metrics = nil
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no benchmark lines in output:\n%s", out)
	}
	return recs, nil
}
