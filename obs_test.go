package heteropar_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	heteropar "repro"
	"repro/internal/bench"
	"repro/internal/obs"
)

// TestObserverEndToEnd runs the full flow with a tracer and a registry
// attached and checks that every pipeline phase left a span, that the
// Chrome export is valid balanced JSON, and that the simulator
// contributed per-core occupancy slices.
func TestObserverEndToEnd(t *testing.T) {
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	rep, err := heteropar.Parallelize(demoSrc, heteropar.Options{
		Platform: heteropar.PlatformA(),
		Scenario: heteropar.Accelerator,
		Tracer:   tr,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	names := map[string]bool{}
	for _, n := range tr.SpanNames() {
		names[n] = true
	}
	for _, phase := range []string{
		"parallelize-flow", "compile", "profile", "htg-build",
		"parallelize", "ilp-solve", "taskspec", "simulate",
	} {
		if !names[phase] {
			t.Errorf("missing span for phase %q (got %v)", phase, tr.SpanNames())
		}
	}
	if tr.NumSlices() == 0 {
		t.Errorf("no occupancy slices exported from the simulation")
	}
	if got := reg.Counter("ilp.solves").Value(); got != int64(rep.Result.Stats.NumILPs) {
		t.Errorf("ilp.solves = %d, want %d", got, rep.Result.Stats.NumILPs)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			PID int     `json:"pid"`
			TID int     `json:"tid"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	begins, ends, complete := 0, 0, 0
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "B":
			begins++
		case "E":
			ends++
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Errorf("occupancy slice with non-positive duration %f", ev.Dur)
			}
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("unbalanced trace: %d begin vs %d end events", begins, ends)
	}
	if complete == 0 {
		t.Errorf("no occupancy X events in the chrome trace")
	}

	if table := rep.SolverStatsTable(); !strings.Contains(table, "region") {
		t.Errorf("SolverStatsTable missing header:\n%s", table)
	}
	if stats := reg.RenderTable(); !strings.Contains(stats, "ilp.solves") {
		t.Errorf("metrics table missing ilp.solves:\n%s", stats)
	}
}

// TestObserverNilIsNoOp checks the disabled path: no sinks, same
// result, nothing to export.
func TestObserverNilIsNoOp(t *testing.T) {
	rep, err := heteropar.Parallelize(demoSrc, heteropar.Options{})
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	if rep.MeasuredSpeedup <= 1 {
		t.Errorf("speedup %.2f", rep.MeasuredSpeedup)
	}
	if rep.Gantt(-5) == "" {
		t.Errorf("Gantt with non-positive width should fall back to a default, not be empty")
	}
}

// kindCounts runs the demo flow with opts and tallies the event log by
// kind.
func kindCounts(t *testing.T, opts heteropar.Options) map[string]int {
	t.Helper()
	if _, err := heteropar.Parallelize(demoSrc, opts); err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	evs := opts.Events.Recent(0)
	if uint64(len(evs)) != opts.Events.Total() {
		t.Fatalf("event ring kept %d of %d events", len(evs), opts.Events.Total())
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	return kinds
}

// TestEventsWithoutTracer: an event log alone receives the solver's
// incumbents and no span markers, since no tracer was given.
func TestEventsWithoutTracer(t *testing.T) {
	kinds := kindCounts(t, heteropar.Options{Events: obs.NewEventLog(nil), SkipSimulation: true})
	if kinds["ilp-incumbent"] == 0 {
		t.Errorf("no ilp-incumbent events: %v", kinds)
	}
	for k := range kinds {
		if strings.HasPrefix(k, "span-") {
			t.Errorf("unexpected %s events without a tracer: %v", k, kinds)
		}
	}
}

// TestTracerSpansIntoEvents: a tracer whose owner copied it into the
// event log with SetEvents yields one span-close per span-open.
func TestTracerSpansIntoEvents(t *testing.T) {
	tr, log := obs.NewTracer(), obs.NewEventLog(nil)
	tr.SetEvents(log)
	kinds := kindCounts(t, heteropar.Options{Tracer: tr, Events: log, SkipSimulation: true})
	if kinds["span-open"] == 0 || kinds["span-open"] != kinds["span-close"] {
		t.Errorf("span-open %d vs span-close %d", kinds["span-open"], kinds["span-close"])
	}
	if kinds["span-open"] != tr.NumSpans() {
		t.Errorf("span-open %d, tracer recorded %d spans", kinds["span-open"], tr.NumSpans())
	}
}

// chromeTracksNest exports tr as a Chrome trace and checks that spans
// nest on every (pid, tid) track: each end event closes the latest open
// begin, of the same name, and no span opens inside an open span of the
// same name (concurrent solves or sweep points sharing a track). It
// returns the number of spans and of tracks holding any.
func chromeTracksNest(t *testing.T, tr *obs.Tracer) (spans, tracks int) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	type track struct{ pid, tid int }
	open := map[track][]string{}
	begins := 0
	for _, ev := range trace.TraceEvents {
		tk := track{ev.PID, ev.TID}
		switch ev.Ph {
		case "B":
			begins++
			for _, name := range open[tk] {
				if name == ev.Name {
					t.Fatalf("%s opens inside another %s on track %v", ev.Name, name, tk)
				}
			}
			open[tk] = append(open[tk], ev.Name)
		case "E":
			st := open[tk]
			if len(st) == 0 || st[len(st)-1] != ev.Name {
				t.Fatalf("end of %q on track %v does not close its begin (open %v)", ev.Name, tk, st)
			}
			open[tk] = st[:len(st)-1]
		}
	}
	return begins, len(open)
}

// TestChromeTracksUnderPoolWidth: region solves running concurrently
// on the region pool each trace to their token's own track, so the
// spans of every Chrome track nest, and the trace has the spans of a
// width-1 run. mult_10's root has several loop nests, so at width 4
// sibling subtrees solve at once and the solves spread over tracks.
func TestChromeTracksUnderPoolWidth(t *testing.T) {
	src := bench.ByName("mult_10").Source
	trace := func(width int) (spans, tracks int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		tr := obs.NewTracer()
		if _, err := heteropar.Parallelize(src, heteropar.Options{
			MaxILPTime:     time.Hour, // node caps, not the clock, end every search
			SkipSimulation: true,
			Tracer:         tr,
		}); err != nil {
			t.Fatalf("Parallelize (width %d): %v", width, err)
		}
		return chromeTracksNest(t, tr)
	}
	seq, _ := trace(1)
	par, tracks := trace(4)
	if par != seq {
		t.Errorf("width-4 trace has %d spans, width 1 %d", par, seq)
	}
	// The main track plus one per token that held a unit; a second token
	// is only handed out while the first is held.
	if tracks < 3 {
		t.Errorf("width-4 trace uses %d tracks; want the main track and at least two worker tracks", tracks)
	}
}
