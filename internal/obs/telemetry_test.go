package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilReceiverNoOpParity is the table-driven audit of the package's
// nil fast path: every exported method of every obs type must be a safe
// no-op on a nil receiver, so instrumented code never branches on
// "is observability on".
func TestNilReceiverNoOpParity(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		r  *Registry
		cv *CounterVec
		hv *HistogramVec
		tr *Tracer
		sp *Span
		o  *Observer
		el *EventLog
		sv *Server
		sw *SyncWriter
	)
	cases := []struct {
		name string
		call func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Value", func() { _ = c.Value() }},
		{"Gauge.Set", func() { g.Set(1) }},
		{"Gauge.Add", func() { g.Add(1) }},
		{"Gauge.Max", func() { g.Max(1) }},
		{"Gauge.Value", func() { _ = g.Value() }},
		{"Histogram.Observe", func() { h.Observe(time.Second) }},
		{"Histogram.Count", func() { _ = h.Count() }},
		{"Histogram.Sum", func() { _ = h.Sum() }},
		{"Histogram.Mean", func() { _ = h.Mean() }},
		{"Histogram.Min", func() { _ = h.Min() }},
		{"Histogram.Max", func() { _ = h.Max() }},
		{"Histogram.Quantile", func() { _ = h.Quantile(0.5) }},
		{"Histogram.Snapshot", func() { _ = h.Snapshot() }},
		{"Registry.Counter", func() { _ = r.Counter("x") }},
		{"Registry.Gauge", func() { _ = r.Gauge("x") }},
		{"Registry.Histogram", func() { _ = r.Histogram("x") }},
		{"Registry.CounterVec", func() { _ = r.CounterVec("x", "l") }},
		{"Registry.HistogramVec", func() { _ = r.HistogramVec("x", "l") }},
		{"Registry.RenderTable", func() { _ = r.RenderTable() }},
		{"Registry.WritePrometheus", func() { _ = r.WritePrometheus(io.Discard) }},
		{"CounterVec.With", func() { _ = cv.With("v").Value() }},
		{"CounterVec.LabelNames", func() { _ = cv.LabelNames() }},
		{"HistogramVec.With", func() { hv.With("v").Observe(time.Second) }},
		{"HistogramVec.LabelNames", func() { _ = hv.LabelNames() }},
		{"Tracer.Start/Span.End", func() { s := tr.Start("x"); s.SetAttr(Int("n", 1)); _ = s.End() }},
		{"Tracer.SetLogger", func() { tr.SetLogger(io.Discard) }},
		{"Tracer.SetEvents", func() { tr.SetEvents(nil) }},
		{"Tracer.Slice", func() { tr.Slice("t", "l", 0, 1) }},
		{"Tracer.NumSpans", func() { _ = tr.NumSpans() }},
		{"Tracer.NumSlices", func() { _ = tr.NumSlices() }},
		{"Tracer.SpanNames", func() { _ = tr.SpanNames() }},
		{"Span.End", func() { _ = sp.End() }},
		{"Span.SetAttr", func() { sp.SetAttr(Int("n", 1)) }},
		{"Observer.T", func() { _ = o.T() }},
		{"Observer.M", func() { _ = o.M() }},
		{"Observer.E", func() { _ = o.E() }},
		{"EventLog.Emit", func() { el.Emit("k", "n", nil) }},
		{"EventLog.Total", func() { _ = el.Total() }},
		{"EventLog.Recent", func() { _ = el.Recent(5) }},
		{"EventLog.WriteJSONL", func() { _ = el.WriteJSONL(io.Discard, 0) }},
		{"Server.Addr", func() { _ = sv.Addr() }},
		{"Server.URL", func() { _ = sv.URL() }},
		{"Server.Close", func() { _ = sv.Close() }},
		{"SyncWriter.Write", func() { _, _ = sw.Write([]byte("x")) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("nil receiver panicked: %v", p)
				}
			}()
			tc.call()
		})
	}
}

// TestHistogramQuantiles checks the log-bucket interpolation against
// a uniform sample: quantiles must land within one bucket of truth and
// stay clamped to the observed min/max.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Millisecond}, {0.9, 900 * time.Millisecond}, {0.99, 990 * time.Millisecond}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		// Log buckets are coarse (1-2-5 series): accept within a factor
		// of 2.5 (one bucket step).
		if got < c.want/2 || got > c.want*5/2 {
			t.Errorf("P%.0f = %v, want within one bucket of %v", 100*c.q, got, c.want)
		}
	}
	if p0 := s.Quantile(0); p0 < s.Min {
		t.Errorf("P0 = %v below observed min %v", p0, s.Min)
	}
	if p100 := s.Quantile(1); p100 > s.Max {
		t.Errorf("P100 = %v above observed max %v", p100, s.Max)
	}
}

// TestSnapshotWhileObserve hammers one histogram with concurrent
// writers while snapshots are taken; run under -race this is the
// quantile histogram's concurrency coverage. Snapshot invariants must
// hold at every instant: bucket sum >= count is guaranteed by read
// order, and count never decreases.
func TestSnapshotWhileObserve(t *testing.T) {
	h := &Histogram{}
	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed+1) * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(d)
				}
			}
		}(w)
	}
	var last int64
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if s.Count < last {
			t.Fatalf("snapshot count went backwards: %d -> %d", last, s.Count)
		}
		last = s.Count
		var bucketSum int64
		for _, b := range s.Buckets {
			bucketSum += b
		}
		if bucketSum < s.Count {
			t.Fatalf("bucket sum %d < count %d: quantile rank would run off the end", bucketSum, s.Count)
		}
		if s.Count > 0 && s.Min == 0 {
			t.Fatalf("count %d with uninitialized min", s.Count)
		}
		_ = s.Quantile(0.99) // must not panic mid-write
	}
	close(stop)
	wg.Wait()
}

// TestVecConcurrentWith exercises concurrent child creation and lookup
// across the vec kinds (the -race coverage for the label table).
func TestVecConcurrentWith(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("t.counts", "model", "source")
	hv := r.HistogramVec("t.hists", "model")
	models := [...]string{"tasks", "chunks", "pipeline"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m := models[(w+i)%len(models)]
				cv.With(m, "computed").Inc()
				hv.With(m).Observe(time.Duration(i) * time.Microsecond)
				if i%50 == 0 {
					_ = r.RenderTable()
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, m := range models {
		total += cv.With(m, "computed").Value()
	}
	if total != 8*500 {
		t.Errorf("counter vec lost increments: %d, want %d", total, 8*500)
	}
	if got := cv.With("tasks", "computed"); got != cv.With("tasks", "computed") {
		t.Error("same label values resolved to different children")
	}
}

// TestVecLabelCanonicalization: two declaration orders address the same
// child.
func TestVecLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("t.v", "model", "source")
	a.With("tasks", "cached").Add(3)
	if got := a.LabelNames(); strings.Join(got, ",") != "model,source" {
		t.Fatalf("label names = %v, want sorted [model source]", got)
	}
	// Same family fetched again keeps its first label set; With in
	// declared order must hit the same child.
	if v := r.CounterVec("t.v", "model", "source").With("tasks", "cached").Value(); v != 3 {
		t.Errorf("re-fetched family child = %d, want 3", v)
	}
	// Mismatched arity must not panic; it addresses a degenerate child.
	r.CounterVec("t.v", "model", "source").With("only-one").Inc()
}

// TestWritePrometheusFormat pins the text-format essentials: TYPE
// lines, label rendering, cumulative buckets in seconds, +Inf terminal
// bucket and escaping.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ilp.solves").Add(3)
	r.Gauge("dse.cache.hit_rate").Set(0.25)
	r.CounterVec("core.region.solves", "model", "source").With(`ta"sk\s`, "computed").Inc()
	h := r.Histogram("ilp.solve_time")
	h.Observe(1500 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE heteropar_ilp_solves counter\nheteropar_ilp_solves 3\n",
		"# TYPE heteropar_dse_cache_hit_rate gauge\nheteropar_dse_cache_hit_rate 0.25\n",
		`heteropar_core_region_solves{model="ta\"sk\\s",source="computed"} 1`,
		"# TYPE heteropar_ilp_solve_time_seconds histogram",
		`heteropar_ilp_solve_time_seconds_bucket{le="0.002"} 1`,
		`heteropar_ilp_solve_time_seconds_bucket{le="0.005"} 2`,
		`heteropar_ilp_solve_time_seconds_bucket{le="+Inf"} 2`,
		"heteropar_ilp_solve_time_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := CheckPromText(strings.NewReader(out)); err != nil {
		t.Errorf("self-check rejects own output: %v", err)
	}
}

// TestCheckPromTextRejects keeps the checker honest: a checker that
// accepts anything would make the scrape smoke test vacuous.
func TestCheckPromTextRejects(t *testing.T) {
	bad := []struct{ name, doc string }{
		{"empty", ""},
		{"no-type-line", "heteropar_x 1\n"},
		{"bad-comment", "# TIPE heteropar_x counter\nheteropar_x 1\n"},
		{"bad-kind", "# TYPE heteropar_x matrix\nheteropar_x 1\n"},
		{"bad-name", "# TYPE 9x counter\n9x 1\n"},
		{"bad-value", "# TYPE heteropar_x counter\nheteropar_x one\n"},
		{"unterminated-labels", "# TYPE heteropar_x counter\nheteropar_x{a=\"b\" 1\n"},
		{"bad-escape", "# TYPE heteropar_x counter\nheteropar_x{a=\"\\t\"} 1\n"},
		{"redeclared", "# TYPE heteropar_x counter\n# TYPE heteropar_x gauge\nheteropar_x 1\n"},
		{"bucket-of-counter", "# TYPE heteropar_x counter\nheteropar_x_bucket{le=\"+Inf\"} 1\n"},
	}
	for _, tc := range bad {
		if err := CheckPromText(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: checker accepted malformed document:\n%s", tc.name, tc.doc)
		}
	}
	good := "# TYPE heteropar_h histogram\n" +
		"heteropar_h_seconds_bucket{le=\"+Inf\"} 2\n"
	// _seconds is part of the family name, so this must fail...
	if err := CheckPromText(strings.NewReader(good)); err == nil {
		t.Error("suffix matching is too loose: accepted bucket of undeclared family")
	}
	// ...while the properly declared form passes.
	ok := "# TYPE heteropar_h_seconds histogram\n" +
		"heteropar_h_seconds_bucket{le=\"+Inf\"} 2\n" +
		"heteropar_h_seconds_sum 0.004\nheteropar_h_seconds_count 2\n"
	if err := CheckPromText(strings.NewReader(ok)); err != nil {
		t.Errorf("checker rejected valid document: %v", err)
	}
}

// TestEventLogRingAndJSONL covers ring rotation, total counting and the
// stable JSONL field order.
func TestEventLogRingAndJSONL(t *testing.T) {
	var file bytes.Buffer
	l := NewEventLog(&file)
	n := DefaultEventRing + 50
	for i := 0; i < n; i++ {
		l.Emit("tick", fmt.Sprintf("e%d", i), map[string]any{"i": i, "a": "x"})
	}
	if got := l.Total(); got != uint64(n) {
		t.Fatalf("total = %d, want %d", got, n)
	}
	recent := l.Recent(0)
	if len(recent) != DefaultEventRing {
		t.Fatalf("ring holds %d, want %d", len(recent), DefaultEventRing)
	}
	if first := recent[0]; first.Seq != uint64(n-DefaultEventRing+1) {
		t.Errorf("oldest retained seq = %d, want %d", first.Seq, n-DefaultEventRing+1)
	}
	if last := recent[len(recent)-1]; last.Name != fmt.Sprintf("e%d", n-1) {
		t.Errorf("newest retained = %q", last.Name)
	}
	if got := len(l.Recent(7)); got != 7 {
		t.Errorf("Recent(7) returned %d", got)
	}
	// The file sink got every line, in order, each a valid JSON object
	// with the fixed prefix field order.
	lines := strings.Split(strings.TrimRight(file.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("file has %d lines, want %d", len(lines), n)
	}
	for i, line := range lines[:3] {
		if !strings.HasPrefix(line, fmt.Sprintf(`{"seq":%d,"t_ms":`, i+1)) {
			t.Errorf("line %d lacks ordered prefix: %s", i, line)
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Errorf("line %d invalid JSON: %v", i, err)
		}
	}
}

// TestEventLogConcurrent emits from many goroutines; under -race this
// covers the ring and the sink serialization.
func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(io.Discard)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				l.Emit("k", "n", nil)
				if i%100 == 0 {
					_ = l.Recent(10)
				}
			}
		}()
	}
	wg.Wait()
	if got := l.Total(); got != 8*300 {
		t.Errorf("total = %d, want %d", got, 8*300)
	}
}

// TestTracerEventMirroring: span open/close markers land in the event
// log when wired.
func TestTracerEventMirroring(t *testing.T) {
	l := NewEventLog(nil)
	tr := NewTracer()
	tr.SetEvents(l)
	sp := tr.Start("phase-x")
	sp.End()
	evs := l.Recent(0)
	if len(evs) != 2 || evs[0].Kind != "span-open" || evs[1].Kind != "span-close" {
		t.Fatalf("events = %+v, want span-open then span-close", evs)
	}
	if evs[1].Name != "phase-x" {
		t.Errorf("close name = %q", evs[1].Name)
	}
	if _, ok := evs[1].Fields["dur_ms"]; !ok {
		t.Errorf("span-close missing dur_ms: %+v", evs[1].Fields)
	}
}

// TestServerEndpoints starts a real server on an ephemeral port and
// exercises every route.
func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("ilp.solves").Add(5)
	l := NewEventLog(nil)
	l.Emit("k", "n", nil)
	srv, err := NewServer("127.0.0.1:0", r, l)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, ct := get("/metrics"); code != 200 ||
		!strings.Contains(body, "heteropar_ilp_solves 5") ||
		!strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics: code=%d ct=%q body=%q", code, ct, body)
	}
	if code, body, _ := get("/healthz"); code != 200 || !strings.HasPrefix(body, "ok") {
		t.Errorf("/healthz: code=%d body=%q", code, body)
	}
	if code, body, _ := get("/events?n=10"); code != 200 || !strings.Contains(body, `"kind":"k"`) {
		t.Errorf("/events: code=%d body=%q", code, body)
	}
	if code, _, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
	if code, _, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: code=%d", code)
	}
}

// TestSyncWriterInterleaving: concurrent writers through one SyncWriter
// produce whole lines only.
func TestSyncWriterInterleaving(t *testing.T) {
	var buf bytes.Buffer
	w := NewSyncWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			line := strings.Repeat(fmt.Sprintf("%d", g), 64) + "\n"
			for i := 0; i < 100; i++ {
				if _, err := io.WriteString(w, line); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if len(line) != 64 || strings.Count(line, line[:1]) != 64 {
			t.Fatalf("line %d interleaved: %q", i, line)
		}
	}
}
