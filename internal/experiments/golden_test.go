package experiments

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// goldenConfig bounds every ILP solve by a small deterministic node
// budget, so the four-figure sweep stays fast and its truncation points
// are machine-independent; the figure speedups are then reproducible
// numbers worth pinning. The wall-clock cap is only a safety net.
func goldenConfig() core.Config {
	return core.Config{
		MaxILPNodes: 60,
		ILPTimeout:  10 * time.Minute,
	}
}

const goldenPath = "testdata/golden_figures.txt"

// TestFigureSpeedupsGolden locks the speedup of every UTDSP benchmark on
// all four figures (config A/B × accelerator/slower-cores) against the
// checked-in golden values. Any solver or pipeline change that alters a
// parallelization plan shows up here as a diff, reviewed by regenerating
// with REPRO_UPDATE_GOLDEN=1.
func TestFigureSpeedupsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full four-figure sweep")
	}
	type row struct{ homo, hetero float64 }
	got := map[string]row{}
	var order []string
	for _, id := range []string{"7a", "7b", "8a", "8b"} {
		fig, err := RunFigure(id, nil, goldenConfig())
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		for _, r := range fig.Rows {
			key := id + " " + r.Benchmark
			got[key] = row{homo: r.Homo, hetero: r.Hetero}
			order = append(order, key)
		}
	}

	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		var sb strings.Builder
		for _, key := range order {
			r := got[key]
			fmt.Fprintf(&sb, "%s %.9f %.9f\n", key, r.homo, r.hetero)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d rows", len(order))
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("no golden file (regenerate with REPRO_UPDATE_GOLDEN=1): %v", err)
	}
	defer f.Close()
	want := map[string]row{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			continue
		}
		homo, err1 := strconv.ParseFloat(fields[2], 64)
		hetero, err2 := strconv.ParseFloat(fields[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad golden line %q", sc.Text())
		}
		want[fields[0]+" "+fields[1]] = row{homo: homo, hetero: hetero}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d rows, sweep produced %d", len(want), len(got))
	}
	const tol = 1e-6
	for _, key := range order {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from golden", key)
			continue
		}
		g := got[key]
		if rel(g.homo, w.homo) > tol || rel(g.hetero, w.hetero) > tol {
			t.Errorf("%s: homo %.9f hetero %.9f, golden %.9f / %.9f",
				key, g.homo, g.hetero, w.homo, w.hetero)
		}
	}
}

func rel(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}
