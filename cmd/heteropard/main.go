// Command heteropard serves the parallelizer as a long-running daemon:
// many clients share one process, one solver pool and one warm solution
// store. The HTTP/JSON API wraps the same pipeline as the heteropar
// CLI, and for equal inputs the daemon's response is byte-identical to
// `heteropar -json`.
//
// Usage:
//
//	heteropard [flags]                start the daemon
//	heteropard -loadgen [flags]       replay a benchmark workload against a daemon
//
// Daemon flags:
//
//	-addr host:port     listen address (default localhost:8380)
//	-workers n          solver pool size (default 4)
//	-queue n            admission queue depth; beyond it requests get 429 (default 64)
//	-timeout d          default per-request wait cap, e.g. 90s (default 2m)
//	-store-cap n        solution store capacity (0 = default sizing)
//	-events f.jsonl     stream structured telemetry events to a JSONL file
//	-drain-timeout d    how long SIGTERM waits for in-flight solves (default 2m)
//
// API:
//
//	POST /v1/parallelize   {"bench":"mult_10"} or {"source":"...", ...}
//	GET  /v1/jobs/{id}     poll an async job
//	GET  /metrics          Prometheus text (solver + store + serve families)
//	GET  /events, /healthz, /debug/pprof/
//
// Identical concurrent requests coalesce onto one solve; repeated
// requests answer from the store without solving. SIGTERM/SIGINT stops
// admission (503), drains in-flight work and exits cleanly.
//
// Loadgen flags (with -loadgen):
//
//	-target url         daemon base URL (default http://localhost:8380)
//	-n requests         total requests (default 100)
//	-c concurrency      in-flight requests (default 8)
//	-benchmarks a,b,c   benchmarks replayed round-robin (default all ten)
//	-platform A|B       platform for every request (default daemon default)
//	-scenario acc|slow  scenario for every request
//	-approach het|hom   approach for every request
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/clitelemetry"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/solstore"
)

func main() {
	var (
		addrFlag     = flag.String("addr", "localhost:8380", "listen address (host:port; port 0 picks an ephemeral port)")
		workersFlag  = flag.Int("workers", serve.DefaultWorkers, "solver pool size")
		queueFlag    = flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth; requests beyond queued+running capacity get 429")
		timeoutFlag  = flag.Duration("timeout", serve.DefaultTimeout, "default per-request wait cap (queue + solve) when the request sets no timeout_ms")
		storeCapFlag = flag.Int("store-cap", 0, "solution store capacity shared by whole-job results and region solves (0 = default sizing)")
		eventsFlag   = flag.String("events", "", "stream structured telemetry events (job queued/coalesced/done, solver incumbents, store evictions) to this JSONL file")
		drainFlag    = flag.Duration("drain-timeout", 2*time.Minute, "how long a shutdown signal waits for in-flight solves before giving up")

		loadgen   = flag.Bool("loadgen", false, "run as a load-generation client against a daemon instead of serving")
		target    = flag.String("target", "http://localhost:8380", "loadgen: daemon base URL")
		nFlag     = flag.Int("n", 100, "loadgen: total requests")
		cFlag     = flag.Int("c", 8, "loadgen: concurrent in-flight requests")
		benchList = flag.String("benchmarks", "all", "loadgen: comma-separated bundled benchmarks replayed round-robin, or \"all\"")
		platFlag  = flag.String("platform", "", "loadgen: platform (A or B) for every request (empty = daemon default)")
		scenFlag  = flag.String("scenario", "", "loadgen: scenario (acc or slow) for every request")
		apprFlag  = flag.String("approach", "", "loadgen: approach (het or hom) for every request")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}

	if *loadgen {
		runLoadgen(*target, *nFlag, *cFlag, *benchList, *platFlag, *scenFlag, *apprFlag)
		return
	}

	if err := clitelemetry.ValidateStoreCap(*storeCapFlag, "selects the default sizing"); err != nil {
		fatalf("%v", err)
	}

	reg := obs.NewRegistry()
	tele, err := clitelemetry.Start("heteropard", "", *eventsFlag, reg)
	if err != nil {
		fatalf("%v", err)
	}
	defer tele.Close()

	srv, err := serve.New(serve.Config{
		Workers:        *workersFlag,
		QueueDepth:     *queueFlag,
		DefaultTimeout: *timeoutFlag,
		Store:          solstore.New(solstore.Options{Capacity: *storeCapFlag, Metrics: reg, Events: tele.Events}),
		Metrics:        reg,
		Events:         tele.Events,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fatalf("%v", err)
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	// The listening line goes to stdout so scripts can scrape the bound
	// address (port 0 resolves to an ephemeral port).
	fmt.Printf("heteropard: listening on http://%s (%d workers, queue %d)\n",
		ln.Addr(), *workersFlag, *queueFlag)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fatalf("%v", err)
	case s := <-sig:
		fmt.Fprintf(tele.Out, "heteropard: %v: draining (up to %v)\n", s, *drainFlag)
	}

	// Graceful shutdown: stop accepting connections, then drain the
	// solver pool so every admitted job still answers its waiters.
	ctx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(tele.Out, "heteropard: http shutdown: %v\n", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fatalf("%v", err)
	}
	st := srv.Store().Stats()
	fmt.Fprintf(tele.Out, "heteropard: drained cleanly (store: %d hits, %d misses, %d entries)\n",
		st.Hits, st.Misses, st.Entries)
}

// runLoadgen replays the benchmark workload against a running daemon
// and prints the throughput/latency report.
func runLoadgen(target string, n, c int, benchCSV, platform, scenario, approach string) {
	var names []string
	if benchCSV == "all" {
		for _, b := range bench.All() {
			names = append(names, b.Name)
		}
	} else {
		for _, name := range strings.Split(benchCSV, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := serve.RunLoad(ctx, serve.LoadOptions{
		BaseURL:     target,
		Benchmarks:  names,
		Concurrency: c,
		Requests:    n,
		Platform:    platform,
		Scenario:    scenario,
		Approach:    approach,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Print(rep.Render())
	if rep.Errors > 0 || rep.StatusCounts[http.StatusOK] != rep.Requests {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "heteropard: "+format+"\n", args...)
	os.Exit(1)
}
