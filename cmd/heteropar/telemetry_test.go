package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/solstore"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// TestRenderTelemetryGolden pins the combined -stats block — solver
// table, region-store summary and metrics table through the single
// shared writer — against a golden file, so the sections keep their
// order and spacing as instrumentation grows.
func TestRenderTelemetryGolden(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("ilp.solves").Add(12)
	reg.Counter("ilp.bb_nodes").Add(340)
	reg.Gauge("ilp.gap.max").Set(0.04)
	reg.CounterVec("core.region.solves", "model", "source").With("tasks", "computed").Add(7)
	reg.CounterVec("core.region.solves", "model", "source").With("tasks", "cached").Add(5)
	h := reg.HistogramVec("core.region.solve_time", "model").With("tasks")
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond} {
		h.Observe(d)
	}

	solverStats := "" +
		"region      model   class  tasks  status    time\n" +
		"loop_1      tasks   0      4      optimal   12ms\n" +
		"loop_2      chunks  1      4      optimal   3ms\n"
	store := &solstore.Stats{Hits: 9, Misses: 3, Dedups: 1, Evictions: 0, Entries: 3,
		FrontEnd: solstore.StageStats{Hits: 1, Misses: 1, Entries: 1}}

	var sb strings.Builder
	renderTelemetry(&sb, solverStats, store, reg.RenderTable())
	got := sb.String()

	golden := filepath.Join("testdata", "telemetry.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("combined telemetry output changed; run `go test ./cmd/heteropar -run Golden -update-golden` if intentional.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRenderTelemetryNoStore keeps the store section optional.
func TestRenderTelemetryNoStore(t *testing.T) {
	var sb strings.Builder
	renderTelemetry(&sb, "table\n", nil, "metrics\n")
	out := sb.String()
	if strings.Contains(out, "region store") {
		t.Errorf("store section rendered without a store:\n%s", out)
	}
	for _, want := range []string{"--- solver statistics ---", "--- metrics ---"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing section %q:\n%s", want, out)
		}
	}
}
