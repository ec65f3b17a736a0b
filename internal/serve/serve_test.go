package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	heteropar "repro"
	"repro/internal/clitelemetry"
	"repro/internal/obs"
	"repro/internal/solstore"
)

// newTestServer builds a server plus an httptest listener; the caller
// may replace s.solve before issuing requests.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

// post sends one parallelize request and returns status, body.
func post(t *testing.T, baseURL string, req Request) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/parallelize", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// stubSolve installs a controllable solve: it blocks until release is
// closed and counts invocations.
func stubSolve(s *Server, calls *atomic.Int64, release <-chan struct{}) {
	s.solve = func(spec *jobSpec) outcome {
		calls.Add(1)
		if release != nil {
			<-release
		}
		res := &Result{Program: spec.name, Scenario: spec.scenarioStr, Approach: spec.approachStr}
		return outcome{body: res.Encode(), code: 200}
	}
}

// TestDaemonMatchesFacadeBytes is the parity gate: the daemon's
// response for a bundled benchmark must be byte-identical to encoding
// the facade's report directly — the same bytes `heteropar -json`
// prints (both paths share ResultOf/Encode; the CI smoke test compares
// against the actual CLI binary).
func TestDaemonMatchesFacadeBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline solve in -short mode")
	}
	rep, err := heteropar.Parallelize(benchSource(t, "mult_10"), heteropar.Options{
		Platform: heteropar.PlatformA(),
		Scenario: heteropar.Accelerator,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ResultOf(rep, "mult_10", "acc", "het").Encode()

	_, ts := newTestServer(t, Config{Workers: 2})
	status, body := post(t, ts.URL, Request{Bench: "mult_10"})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("daemon response differs from facade encoding:\n--- daemon ---\n%s--- facade ---\n%s", body, want)
	}

	// A repeat request is a cache hit with the very same bytes.
	status, again := post(t, ts.URL, Request{Bench: "mult_10"})
	if status != http.StatusOK || !bytes.Equal(again, want) {
		t.Errorf("cached response differs (status %d):\n%s", status, again)
	}
}

// benchSource fetches a bundled benchmark's source through the public
// request path, so the test exercises the same resolution the daemon
// uses.
func benchSource(t *testing.T, name string) string {
	t.Helper()
	spec, err := specOf(&Request{Bench: name})
	if err != nil {
		t.Fatal(err)
	}
	return spec.source
}

// TestCoalesceIdenticalRequests issues N concurrent identical requests
// against a blocked solver and checks exactly one solve ran and the
// coalesce counter recorded N-1 joins.
func TestCoalesceIdenticalRequests(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 2, Metrics: reg})
	var calls atomic.Int64
	release := make(chan struct{})
	stubSolve(s, &calls, release)

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = post(t, ts.URL, Request{Bench: "fir_256"})
		}(i)
	}
	// Wait until the leader is inside the solve, then let everyone
	// pile onto the same job before releasing it.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for reg.Counter("serve.coalesce.hits").Value() < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("solve ran %d times for %d identical requests; want 1", got, n)
	}
	if got := reg.Counter("serve.coalesce.hits").Value(); got != n-1 {
		t.Fatalf("coalesce counter = %d; want %d", got, n-1)
	}
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d got different bytes", i)
		}
	}
}

// TestOverloadSheds429 saturates a 1-worker/1-slot queue and checks the
// excess unique request is rejected with 429 + Retry-After while the
// admitted solves still complete — overload sheds at the door without
// starving in-flight work.
func TestOverloadSheds429(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Metrics: reg})
	var calls atomic.Int64
	release := make(chan struct{})
	stubSolve(s, &calls, release)

	// Occupy the worker and the single queue slot with distinct jobs.
	var wg sync.WaitGroup
	admitted := []string{"fir_256", "mult_10"}
	results := make([]int, len(admitted))
	for i, name := range admitted {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			results[i], _ = post(t, ts.URL, Request{Bench: name})
		}(i, name)
	}
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	waitFor(t, func() bool { return len(s.queue) == 1 }, "queue slot occupied")

	// A third unique job finds pool and queue full.
	req, _ := json.Marshal(&Request{Bench: "iir_4"})
	resp, err := http.Post(ts.URL+"/v1/parallelize", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 without Retry-After header")
	}

	// The rejected request must not have disturbed the admitted ones.
	close(release)
	wg.Wait()
	for i, st := range results {
		if st != http.StatusOK {
			t.Fatalf("admitted request %d (%s) got %d", i, admitted[i], st)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("solve ran %d times; want 2 (the admitted jobs)", got)
	}
}

// TestDrainRejectsNewAndFinishesInflight covers graceful shutdown: an
// in-flight solve completes and its waiter gets the result, while work
// submitted after Drain starts is rejected with 503.
func TestDrainRejectsNewAndFinishesInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int64
	release := make(chan struct{})
	stubSolve(s, &calls, release)

	var inflightStatus atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, _ := post(t, ts.URL, Request{Bench: "fir_256"})
		inflightStatus.Store(int64(st))
	}()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, func() bool {
		s.drainMu.RLock()
		defer s.drainMu.RUnlock()
		return s.draining
	}, "draining flag")

	if st, body := post(t, ts.URL, Request{Bench: "mult_10"}); st != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d body %s; want 503", st, body)
	}

	close(release)
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := inflightStatus.Load(); st != http.StatusOK {
		t.Fatalf("in-flight request finished with %d; want 200", st)
	}
}

// TestDeadlineAbandonsWaitNotSolve checks timeout_ms: the client gets
// 504 while the solve continues, finishes, and serves the retry from
// cache.
func TestDeadlineAbandonsWaitNotSolve(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, Metrics: reg})
	var calls atomic.Int64
	release := make(chan struct{})
	stubSolve(s, &calls, release)

	status, body := post(t, ts.URL, Request{Bench: "fir_256", TimeoutMs: 50})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body %s; want 504", status, body)
	}
	close(release)

	// The abandoned solve lands in the store; the retry is a cache hit
	// with zero additional solves.
	spec, err := specOf(&Request{Bench: "fir_256"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, ok := s.cachedOutcome(spec.key)
		return ok
	}, "abandoned solve to land in the store")
	if st, body := post(t, ts.URL, Request{Bench: "fir_256"}); st != http.StatusOK {
		t.Fatalf("retry: status %d body %s; want 200 from cache", st, body)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("solve ran %d times; want 1 (retry from cache)", got)
	}
	if reg.Counter("serve.cache.hits").Value() == 0 {
		t.Fatal("retry did not count as a cache hit")
	}
}

// TestAsyncLifecycle submits with async=true and polls the job to
// completion; the final GET serves the canonical result bytes.
func TestAsyncLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int64
	release := make(chan struct{})
	stubSolve(s, &calls, release)

	status, body := post(t, ts.URL, Request{Bench: "fir_256", Async: true})
	if status != http.StatusAccepted {
		t.Fatalf("async submit: status %d body %s; want 202", status, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("async envelope %s: %v", body, err)
	}
	if st.Status != "queued" && st.Status != "running" {
		t.Fatalf("fresh job status %q", st.Status)
	}

	get := func() (int, []byte) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	if code, b := get(); code != http.StatusOK || !bytes.Contains(b, []byte(`"status"`)) {
		t.Fatalf("pending poll: %d %s", code, b)
	}
	close(release)
	waitFor(t, func() bool {
		code, b := get()
		return code == http.StatusOK && bytes.Contains(b, []byte(`"program"`))
	}, "job completion")

	if _, b := get(); !bytes.Contains(b, []byte(`"program": "fir_256"`)) {
		t.Fatalf("completed job body: %s", b)
	}
	if calls.Load() != 1 {
		t.Fatalf("solve ran %d times", calls.Load())
	}
}

// TestRequestValidation walks the 4xx surface.
func TestRequestValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int64
	stubSolve(s, &calls, nil)

	cases := []struct {
		name string
		req  Request
		want int
	}{
		{"empty", Request{}, 400},
		{"unknown bench", Request{Bench: "nope"}, 400},
		{"both inputs", Request{Bench: "fir_256", Source: "void main() {}"}, 400},
		{"bad scenario", Request{Bench: "fir_256", Scenario: "fast"}, 400},
		{"bad approach", Request{Bench: "fir_256", Approach: "magic"}, 400},
		{"bad platform", Request{Bench: "fir_256", Platform: json.RawMessage(`"C"`)}, 400},
		{"negative workers", Request{Bench: "fir_256", RegionWorkers: -1}, 400},
		{"negative timeout", Request{Bench: "fir_256", TimeoutMs: -5}, 400},
	}
	for _, tc := range cases {
		if st, body := post(t, ts.URL, tc.req); st != tc.want {
			t.Errorf("%s: status %d body %s; want %d", tc.name, st, body, tc.want)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("invalid requests reached the solver (%d calls)", calls.Load())
	}

	// Method and job-id errors.
	resp, err := http.Get(ts.URL + "/v1/parallelize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/parallelize = %d; want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d; want 404", resp.StatusCode)
	}
}

// TestInvalidStoreCapacity checks the daemon-side -store-cap edge
// semantics: negative capacity is a configuration error, never a
// silent cache-off, and 0 builds a default-sized store the daemon
// really caches in.
func TestInvalidStoreCapacity(t *testing.T) {
	const zeroMeaning = "selects the default sizing"
	if err := clitelemetry.ValidateStoreCap(-1, zeroMeaning); err == nil {
		t.Fatal("a negative store capacity was accepted")
	} else if !strings.Contains(err.Error(), ">= 0") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if err := clitelemetry.ValidateStoreCap(0, zeroMeaning); err != nil {
		t.Fatalf("capacity 0 rejected: %v", err)
	}

	reg := obs.NewRegistry()
	store := solstore.New(solstore.Options{Capacity: 0, Metrics: reg})
	s, ts := newTestServer(t, Config{Workers: 1, Metrics: reg, Store: store})
	var calls atomic.Int64
	stubSolve(s, &calls, nil)
	for i := 0; i < 2; i++ {
		if status, body := post(t, ts.URL, Request{Bench: "fir_256"}); status != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, status, body)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("solve ran %d times for a repeated request on a capacity-0 store; want 1", got)
	}
	if got := reg.Counter("serve.cache.hits").Value(); got != 1 {
		t.Errorf("serve.cache.hits = %d, want 1", got)
	}
}

// TestMetricsEndpoint drives traffic and checks the serve.* families
// appear on /metrics as structurally valid Prometheus text.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, Metrics: reg})
	var calls atomic.Int64
	stubSolve(s, &calls, nil)

	if st, body := post(t, ts.URL, Request{Bench: "fir_256"}); st != http.StatusOK {
		t.Fatalf("seed request: %d %s", st, body)
	}
	post(t, ts.URL, Request{Bench: "nope"}) // a 400 for the status counter

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`heteropar_serve_requests{code="200",endpoint="parallelize"} 1`,
		`heteropar_serve_requests{code="400",endpoint="parallelize"} 1`,
		"heteropar_serve_request_latency_seconds_count",
		"heteropar_serve_solve_latency_seconds_count",
		"heteropar_serve_queue_depth",
		"heteropar_serve_inflight",
		"heteropar_serve_coalesce_hits",
		"heteropar_serve_cache_hits",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if err := obs.CheckPromText(bytes.NewReader(body)); err != nil {
		t.Errorf("invalid Prometheus text: %v", err)
	}
}

// TestSolvePanicServes500 runs a solve that panics on one key: that
// request gets a 500 error envelope, other requests are still served,
// and the 500 is not cached, so a repeat solves again.
func TestSolvePanicServes500(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, Metrics: reg})
	var calls, panics atomic.Int64
	stubSolve(s, &calls, nil)
	ok := s.solve
	s.solve = func(spec *jobSpec) outcome {
		if spec.name == "fir_256" && panics.Add(1) == 1 {
			panic("stub fault")
		}
		return ok(spec)
	}

	st, body := post(t, ts.URL, Request{Bench: "fir_256"})
	var env map[string]string
	if err := json.Unmarshal(body, &env); err != nil || st != http.StatusInternalServerError ||
		!strings.Contains(env["error"], "panicked: stub fault") {
		t.Fatalf("panicking solve: status %d body %s; want a 500 error envelope", st, body)
	}
	if st, body := post(t, ts.URL, Request{Bench: "mult_10"}); st != http.StatusOK {
		t.Fatalf("request after the panic: status %d body %s", st, body)
	}
	if st, body := post(t, ts.URL, Request{Bench: "fir_256"}); st != http.StatusOK {
		t.Fatalf("repeat of the panicked request: status %d body %s", st, body)
	}
	if got := panics.Load(); got != 2 {
		t.Errorf("fir_256 solved %d times; want 2 (the 500 must not be cached)", got)
	}
	if got := reg.Counter("serve.cache.hits").Value(); got != 0 {
		t.Errorf("serve.cache.hits = %d; want 0", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if want := `heteropar_serve_requests{code="500",endpoint="parallelize"} 1`; !strings.Contains(string(text), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestRetryAfterSeconds pins the backpressure estimate policy.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		queued, workers int
		mean            time.Duration
		want            int
	}{
		{0, 4, 0, 1},                      // empty queue, no history: minimum
		{0, 4, 500 * time.Millisecond, 1}, // sub-second rounds up to 1
		{8, 4, time.Second, 3},            // 2 batches ahead + own slot
		{100, 4, 2 * time.Second, 52},     // long backlog
		{1000, 1, 10 * time.Second, 60},   // clamped at the ceiling
		{5, 0, time.Second, 6},            // degenerate worker count
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.queued, tc.workers, tc.mean); got != tc.want {
			t.Errorf("retryAfterSeconds(%d, %d, %v) = %d; want %d",
				tc.queued, tc.workers, tc.mean, got, tc.want)
		}
	}
}

// waitFor polls cond with a deadline to keep failed tests from hanging.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := now().Add(10 * time.Second)
	for !cond() {
		if now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobKeyContentAddressing checks the fingerprint: equal inputs
// share a key; any solver-visible difference (source, platform,
// resolved main class, approach) separates them; output-neutral knobs
// (region workers, timeout) do not.
func TestJobKeyContentAddressing(t *testing.T) {
	key := func(req Request) string {
		t.Helper()
		spec, err := specOf(&req)
		if err != nil {
			t.Fatal(err)
		}
		return spec.key
	}
	base := key(Request{Bench: "fir_256"})
	if base != key(Request{Bench: "fir_256", RegionWorkers: 4, TimeoutMs: 1000, Async: true}) {
		t.Error("output-neutral knobs changed the job key")
	}
	if base == key(Request{Bench: "mult_10"}) {
		t.Error("different programs share a key")
	}
	if base == key(Request{Bench: "fir_256", Platform: json.RawMessage(`"B"`)}) {
		t.Error("different platforms share a key")
	}
	if base == key(Request{Bench: "fir_256", Scenario: "slow"}) {
		t.Error("different main classes share a key")
	}
	if base == key(Request{Bench: "fir_256", Approach: "hom"}) {
		t.Error("different approaches share a key")
	}
}
