// Package serve is the parallelizer-as-a-service layer: it wraps the
// facade heteropar.Parallelize behind an HTTP/JSON API so many clients
// share one long-running process — and, through it, one warm solution
// store. The repo's own measurements make caching the scale story (the
// 200×3 DSE sweep is 38m23s cold vs 17ms warm), so the daemon's job is
// to keep that store hot and to protect the solver pool behind it:
//
//   - POST /v1/parallelize — solve one (program, platform, scenario,
//     approach) job; the response bytes are identical to
//     `heteropar -json` for the same inputs. With "async": true the
//     call returns 202 + a job id instead of waiting.
//   - GET /v1/jobs/{id} — poll an async job; returns the canonical
//     result document once the job is done.
//   - /metrics, /healthz, /events, /debug/pprof/ — the obs telemetry
//     surface, mounted on the same listener.
//
// Three mechanisms keep the daemon stable under heavy traffic:
//
// Coalescing. Jobs are content-addressed by the same fingerprint
// machinery the solution store uses (source, platform fingerprint,
// resolved main class, approach). A request whose key matches a
// queued or running job joins it instead of enqueueing a second solve
// — N concurrent identical requests cost exactly one solve — and a
// request whose key is already in the store is answered from cache
// without touching the pool at all.
//
// Admission control. Unique jobs pass through a bounded queue feeding
// a fixed worker pool. When the queue is full the request is rejected
// immediately with 429 and a Retry-After estimated from the observed
// solve latency, so overload sheds load at the door instead of
// starving the solves already in flight. Every request carries a
// deadline (request field or server default) propagated via context;
// a client that times out abandons only its wait — the solve runs to
// completion and lands in the store for the retry.
//
// Graceful shutdown. Drain stops admission (503 for new work), closes
// the queue, and waits for in-flight solves to finish, so a SIGTERM
// never wastes work the store could have kept.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	heteropar "repro"
	"repro/internal/obs"
	"repro/internal/solstore"
)

// Defaults for Config.
const (
	DefaultWorkers    = 4
	DefaultQueueDepth = 64
	DefaultTimeout    = 2 * time.Minute
)

// storeKeyPrefix namespaces whole-job results inside the shared store;
// region keys carry "region|" and DSE outcomes "dse|", so the three
// populations never collide.
const storeKeyPrefix = "serve|"

// Config configures a Server.
type Config struct {
	// Workers is the solver pool size (DefaultWorkers when <= 0).
	Workers int
	// QueueDepth bounds the admission queue (DefaultQueueDepth when
	// <= 0). Requests beyond queued+running capacity get 429.
	QueueDepth int
	// DefaultTimeout caps a request's wait (queue + solve) when the
	// request sets no timeout_ms (DefaultTimeout when <= 0).
	DefaultTimeout time.Duration
	// Store is the shared solution store: whole-job results, DSE
	// outcomes and region subproblems can share one bounded arena. A nil
	// Store gets a private default-capacity store wired to Metrics and
	// Events.
	Store *solstore.Store
	// RegionWorkers is the per-solve region concurrency handed to the
	// facade when a request does not set region_workers.
	RegionWorkers int
	// Metrics receives the serve.* families plus the facade's solver
	// and store metrics; a nil registry disables metric collection
	// (the /metrics endpoint then serves an empty body).
	Metrics *obs.Registry
	// Events, when non-nil, receives serve-job-* events next to the
	// facade's solver/store events, and backs the /events endpoint.
	Events *obs.EventLog
}

// Server is the daemon core. It implements http.Handler; the caller
// owns the listener (net/http.Server, httptest.Server, ...). Create
// with New, stop with Drain.
type Server struct {
	cfg    Config
	store  *solstore.Store
	reg    *obs.Registry
	events *obs.EventLog
	mux    *http.ServeMux

	queue   chan *job
	workers sync.WaitGroup

	// drainMu guards draining and the queue close: enqueues take the
	// read side, Drain the write side, so a send on a closed queue is
	// impossible.
	drainMu  sync.RWMutex
	draining bool

	// jobsMu guards jobs, the registry of queued and running jobs that
	// doubles as the coalescing singleflight table. Completed jobs
	// leave the registry; their results live in the store under the
	// same content address.
	jobsMu sync.Mutex
	jobs   map[string]*job

	requests     *obs.CounterVec   // serve.requests{endpoint,code}
	latency      *obs.HistogramVec // serve.request.latency{endpoint}
	solveLatency *obs.Histogram    // serve.solve.latency
	queueDepth   *obs.Gauge        // serve.queue.depth
	inflight     *obs.Gauge        // serve.inflight
	coalesceHits *obs.Counter      // serve.coalesce.hits
	cacheHits    *obs.Counter      // serve.cache.hits

	// solve runs one job; swapped by tests for controllable latency.
	solve func(spec *jobSpec) outcome
}

// job is one queued-or-running solve that any number of requests wait
// on.
type job struct {
	spec *jobSpec
	done chan struct{}
	out  outcome

	mu      sync.Mutex
	running bool
}

// outcome is a finished job: either the canonical result document,
// encoded once when the job finishes, or an error with the HTTP status it
// maps to. Outcomes are stored whole — errors included — because for
// equal inputs the pipeline fails or succeeds deterministically. The one
// exception is a solve that panicked: its 500 is served to the waiting
// requests but never stored, so a repeat runs the solve again.
type outcome struct {
	body   []byte
	errMsg string
	code   int
}

// New builds a server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultTimeout
	}
	store := cfg.Store
	if store == nil {
		store = solstore.New(solstore.Options{Metrics: cfg.Metrics, Events: cfg.Events})
	}
	s := &Server{
		cfg:          cfg,
		store:        store,
		reg:          cfg.Metrics,
		events:       cfg.Events,
		queue:        make(chan *job, cfg.QueueDepth),
		jobs:         map[string]*job{},
		requests:     cfg.Metrics.CounterVec("serve.requests", "endpoint", "code"),
		latency:      cfg.Metrics.HistogramVec("serve.request.latency", "endpoint"),
		solveLatency: cfg.Metrics.Histogram("serve.solve.latency"),
		queueDepth:   cfg.Metrics.Gauge("serve.queue.depth"),
		inflight:     cfg.Metrics.Gauge("serve.inflight"),
		coalesceHits: cfg.Metrics.Counter("serve.coalesce.hits"),
		cacheHits:    cfg.Metrics.Counter("serve.cache.hits"),
	}
	s.solve = s.realSolve

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/parallelize", s.handleParallelize)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.Handle("/", obs.TelemetryHandler(cfg.Metrics, cfg.Events))

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store returns the server's solution store (never nil), for sharing
// with other consumers or inspecting stats.
func (s *Server) Store() *solstore.Store { return s.store }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain gracefully shuts the pool down: new work is rejected with 503,
// already-admitted jobs run to completion (every waiter gets its
// response), and the call returns once the pool is idle or ctx
// expires. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.drainMu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// handleParallelize serves POST /v1/parallelize.
func (s *Server) handleParallelize(w http.ResponseWriter, r *http.Request) {
	start := now()
	code := s.parallelize(w, r)
	s.requests.With("parallelize", strconv.Itoa(code)).Inc()
	s.latency.With("parallelize").Observe(since(start))
}

// parallelize runs the request lifecycle and returns the status code
// served (for the per-status counter).
func (s *Server) parallelize(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return s.fail(w, http.StatusMethodNotAllowed, "use POST with a JSON body")
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		return s.fail(w, http.StatusBadRequest, "read body: %v", err)
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return s.fail(w, http.StatusBadRequest, "parse request: %v", err)
	}
	spec, err := specOf(&req)
	if err != nil {
		return s.fail(w, http.StatusBadRequest, "%v", err)
	}

	// Cache: a finished job with this content address answers
	// immediately, no pool involvement.
	if out, ok := s.cachedOutcome(spec.key); ok {
		s.cacheHits.Inc()
		if req.Async {
			return s.writeJSON(w, http.StatusAccepted, jobStatus{ID: spec.key, Status: "done"})
		}
		return s.writeOutcome(w, out)
	}

	j, admitted := s.admit(spec)
	switch {
	case j == nil && admitted: // draining
		return s.fail(w, http.StatusServiceUnavailable, "server is draining; retry against another instance")
	case j == nil: // queue full
		w.Header().Set("Retry-After", strconv.Itoa(
			retryAfterSeconds(len(s.queue), s.cfg.Workers, s.solveLatency.Mean())))
		return s.fail(w, http.StatusTooManyRequests, "queue full (%d queued, %d workers); retry after the advertised delay",
			len(s.queue), s.cfg.Workers)
	}

	if req.Async {
		return s.writeJSON(w, http.StatusAccepted, jobStatus{ID: spec.key, Status: j.status()})
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	select {
	case <-j.done:
		return s.writeOutcome(w, j.out)
	case <-ctx.Done():
		// The wait is abandoned, never the solve: it finishes and is
		// cached under the job id, so a retry is a cache hit.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return s.fail(w, http.StatusGatewayTimeout,
				"deadline exceeded waiting for job %s; the solve continues — retry or poll /v1/jobs/%s", spec.key, spec.key)
		}
		return s.fail(w, 499, "client closed request while waiting for job %s", spec.key) // nginx's 499, for the status counter
	}
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	start := now()
	code := s.jobLookup(w, r)
	s.requests.With("jobs", strconv.Itoa(code)).Inc()
	s.latency.With("jobs").Observe(since(start))
}

func (s *Server) jobLookup(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return s.fail(w, http.StatusMethodNotAllowed, "use GET /v1/jobs/{id}")
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		return s.fail(w, http.StatusBadRequest, "want /v1/jobs/{id}")
	}
	s.jobsMu.Lock()
	j := s.jobs[id]
	s.jobsMu.Unlock()
	if j != nil {
		return s.writeJSON(w, http.StatusOK, jobStatus{ID: id, Status: j.status()})
	}
	if out, ok := s.cachedOutcome(id); ok {
		return s.writeOutcome(w, out)
	}
	return s.fail(w, http.StatusNotFound, "unknown job %s (never submitted, or its result aged out of the store)", id)
}

// jobStatus is the envelope for async submissions and pending polls.
type jobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// cachedOutcome looks a finished job up in the store.
func (s *Server) cachedOutcome(key string) (outcome, bool) {
	v, ok := s.store.Get(storeKeyPrefix + key)
	if !ok {
		return outcome{}, false
	}
	out, ok := v.(outcome)
	return out, ok
}

// admit coalesces the spec onto an existing job or enqueues a new one.
// Returns (job, _) on success; (nil, true) when draining; (nil, false)
// when the queue is full.
func (s *Server) admit(spec *jobSpec) (*job, bool) {
	s.jobsMu.Lock()
	if j, ok := s.jobs[spec.key]; ok {
		s.jobsMu.Unlock()
		s.coalesceHits.Inc()
		s.events.Emit("serve-job-coalesced", spec.key, map[string]any{"program": spec.name})
		return j, false
	}
	j := &job{spec: spec, done: make(chan struct{})}
	s.jobs[spec.key] = j
	s.jobsMu.Unlock()

	s.drainMu.RLock()
	draining := s.draining
	enqueued := false
	if !draining {
		select {
		case s.queue <- j:
			enqueued = true
		default:
		}
	}
	s.drainMu.RUnlock()

	if enqueued {
		s.queueDepth.Set(float64(len(s.queue)))
		s.events.Emit("serve-job-queued", spec.key, map[string]any{"program": spec.name, "queue_depth": len(s.queue)})
		return j, false
	}
	// Rejected at the door. Followers may already have joined between
	// the registry insert and the failed enqueue, so fail the job —
	// they get the overload outcome too — before unregistering it.
	code := http.StatusTooManyRequests
	msg := "queue full"
	if draining {
		code, msg = http.StatusServiceUnavailable, "server is draining"
	}
	j.finish(outcome{errMsg: msg, code: code})
	s.jobsMu.Lock()
	delete(s.jobs, spec.key)
	s.jobsMu.Unlock()
	return nil, draining
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.queueDepth.Set(float64(len(s.queue)))
		j.setRunning()
		s.inflight.Add(1)
		t0 := now()
		out := s.solveRecovered(j.spec)
		d := since(t0)
		s.inflight.Add(-1)
		s.solveLatency.Observe(d)
		// Publish to the store before closing the registry entry, so a
		// request arriving between the two always finds one or the
		// other — never a gap.
		if out.code != http.StatusInternalServerError {
			s.store.Put(storeKeyPrefix+j.spec.key, out)
		}
		j.finish(out)
		s.jobsMu.Lock()
		delete(s.jobs, j.spec.key)
		s.jobsMu.Unlock()
		s.events.Emit("serve-job-done", j.spec.key, map[string]any{
			"program":  j.spec.name,
			"code":     out.code,
			"solve_ms": float64(d.Nanoseconds()) / 1e6,
		})
	}
}

// solveRecovered runs s.solve and turns a panic into a 500 outcome, so
// one faulty job fails its own requests instead of the daemon.
func (s *Server) solveRecovered(spec *jobSpec) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{errMsg: fmt.Sprintf("internal error: the solve of job %s panicked: %v", spec.key, r),
				code: http.StatusInternalServerError}
		}
	}()
	return s.solve(spec)
}

// realSolve runs the full pipeline through the facade, sharing the
// server's store so region subproblems reuse across jobs.
func (s *Server) realSolve(spec *jobSpec) outcome {
	workers := spec.regionWorkers
	if workers == 0 {
		workers = s.cfg.RegionWorkers
	}
	rep, err := heteropar.Parallelize(spec.source, heteropar.Options{
		Platform:      spec.platform,
		Scenario:      spec.scenario,
		Approach:      spec.approach,
		RegionWorkers: workers,
		Store:         s.store,
		Metrics:       s.reg,
		Events:        s.events,
	})
	if err != nil {
		return outcome{errMsg: err.Error(), code: http.StatusUnprocessableEntity}
	}
	return outcome{body: ResultOf(rep, spec.name, spec.scenarioStr, spec.approachStr).Encode(), code: http.StatusOK}
}

// retryAfterSeconds estimates when a rejected client should retry: the
// time for the current backlog to clear through the pool at the
// observed mean solve latency, clamped to [1s, 60s]. A pure function
// of its inputs so the policy is unit-testable.
func retryAfterSeconds(queued, workers int, meanSolve time.Duration) int {
	if workers < 1 {
		workers = 1
	}
	if meanSolve <= 0 {
		meanSolve = time.Second
	}
	est := time.Duration(queued/workers+1) * meanSolve
	sec := int((est + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// writeOutcome serves a finished job: the canonical result bytes on
// success, the error envelope otherwise.
func (s *Server) writeOutcome(w http.ResponseWriter, out outcome) int {
	if out.errMsg != "" {
		return s.fail(w, out.code, "%s", out.errMsg)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(out.code)
	_, _ = w.Write(out.body)
	return out.code
}

// writeJSON serves an envelope document (status, error).
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	buf, _ := json.Marshal(v)
	_, _ = w.Write(append(buf, '\n'))
	return code
}

// fail serves the error envelope {"error": "..."}.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) int {
	return s.writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// status reports queued/running for the async envelope.
func (j *job) status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.done:
		return "done"
	default:
	}
	if j.running {
		return "running"
	}
	return "queued"
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.running = true
	j.mu.Unlock()
}

func (j *job) finish(out outcome) {
	j.out = out
	close(j.done)
}
