package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsFreeNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("phase", Int("n", 1))
	sp.SetAttr(String("k", "v"))
	if d := sp.End(); d != 0 {
		t.Errorf("nil span duration = %v, want 0", d)
	}
	tr.Slice("core0", "work", 0, 100)
	tr.SetLogger(nil)
	if tr.NumSpans() != 0 || tr.NumSlices() != 0 || tr.SpanNames() != nil {
		t.Errorf("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome on nil tracer: %v", err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil tracer export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 0 {
		t.Errorf("nil tracer exported %d events", len(out.TraceEvents))
	}
}

func TestSpanRecordingAndNames(t *testing.T) {
	tr := NewTracer()
	outer := tr.Start("compile")
	inner := tr.Start("parse", Int("tokens", 42))
	inner.SetAttr(Bool("ok", true))
	inner.End()
	outer.End()
	if got := tr.NumSpans(); got != 2 {
		t.Errorf("NumSpans = %d, want 2", got)
	}
	names := tr.SpanNames()
	if len(names) != 2 || names[0] != "compile" || names[1] != "parse" {
		t.Errorf("SpanNames = %v", names)
	}
}

func TestVerboseLogger(t *testing.T) {
	tr := NewTracer()
	var buf bytes.Buffer
	tr.SetLogger(&buf)
	sp := tr.Start("htg-build", Int("nodes", 7))
	sp.End()
	line := buf.String()
	if !strings.Contains(line, "htg-build") || !strings.Contains(line, "nodes=7") {
		t.Errorf("verbose log missing span info: %q", line)
	}
}

// TestDurNamesItsUnit checks that duration attributes carry an "_ms" key
// suffix and a millisecond value, in the attribute and in the -v log.
func TestDurNamesItsUnit(t *testing.T) {
	a := Dur("solve_time", 3585549375*time.Nanosecond)
	if a.Key != "solve_time_ms" || a.Val != 3585.549375 {
		t.Errorf("Dur = %+v, want {solve_time_ms 3585.549375}", a)
	}
	tr := NewTracer()
	var buf bytes.Buffer
	tr.SetLogger(&buf)
	tr.Start("parallelize", Dur("solve_time", 1500*time.Microsecond)).End()
	if line := buf.String(); !strings.Contains(line, "solve_time_ms=1.5") {
		t.Errorf("verbose log lacks the unit-suffixed key: %q", line)
	}
}

// TestChromeExportBalanced drives a realistic span tree plus occupancy
// slices through the exporter and checks the invariants a trace viewer
// relies on: valid JSON, every 'B' matched by an 'E' on the same
// pid/tid (including spans left open at export time), monotone
// timestamps per track, and the occupancy slices present as 'X' events.
func TestChromeExportBalanced(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("parallelize", String("approach", "heterogeneous"))
	for i := 0; i < 3; i++ {
		sp := tr.Start("ilp-solve", Int("region", i))
		sp.SetAttr(Int("nodes", 100*i))
		time.Sleep(time.Millisecond)
		sp.End()
	}
	root.End()
	_ = tr.Worker(0).Start("ilp-solve") // left open on a worker track
	open := tr.Start("simulate")        // deliberately left open
	_ = open
	tr.Slice("core0 ARM-100", "task", 0, 1500)
	tr.Slice("core1 ARM-250", "chunk", 200, 900)
	tr.Slice("bus", "bus", 100, 180)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}

	type track struct{ pid, tid int }
	depth := map[track]int{}
	lastTS := map[track]float64{}
	var begins, ends, slices int
	for _, ev := range out.TraceEvents {
		k := track{ev.PID, ev.TID}
		switch ev.Ph {
		case "B":
			begins++
			depth[k]++
		case "E":
			ends++
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("unbalanced: 'E' for %q with no open span", ev.Name)
			}
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Errorf("slice %q has non-positive duration %v", ev.Name, ev.Dur)
			}
		case "M":
			continue
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.TS < lastTS[k] {
			t.Errorf("timestamps regress on pid=%d tid=%d: %v after %v", ev.PID, ev.TID, ev.TS, lastTS[k])
		}
		lastTS[k] = ev.TS
	}
	if begins != 6 || ends != 6 {
		t.Errorf("begin/end events = %d/%d, want 6/6 (open spans must be auto-closed)", begins, ends)
	}
	if _, ok := depth[track{1, 2}]; !ok {
		t.Errorf("worker 0 span not on its own track (tid 2): tracks %v", depth)
	}
	for k, d := range depth {
		if d != 0 {
			t.Errorf("track %+v left %d spans open", k, d)
		}
	}
	if slices != 3 {
		t.Errorf("occupancy slices = %d, want 3", slices)
	}
	// Attribute round trip.
	found := false
	for _, ev := range out.TraceEvents {
		if ev.Ph == "B" && ev.Name == "ilp-solve" {
			if _, ok := ev.Args["nodes"]; ok {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("SetAttr attributes lost in export")
	}
}

func TestWriteChromeFile(t *testing.T) {
	tr := NewTracer()
	tr.Start("phase").End()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteChromeFile(path); err != nil {
		t.Fatalf("WriteChromeFile: %v", err)
	}
}
