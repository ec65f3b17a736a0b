package dse

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/solstore"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyProgram2 is a second sweep workload with a different shape: a
// producer loop, a sequential reduction, and a consumer loop depending
// on both.
const tinyProgram2 = `
int x[64];
int y[64];
int acc;

void main(void) {
    for (int i = 0; i < 64; i++) {
        x[i] = i * 3 + 1;
    }
    acc = 0;
    for (int j = 0; j < 64; j++) {
        acc = acc + x[j] * x[j];
    }
    for (int k = 0; k < 64; k++) {
        y[k] = x[k] + acc;
    }
}
`

func testWorkload(t *testing.T, name, src string) *Workload {
	t.Helper()
	g := buildGraph(t, src)
	return PrepareWorkload(&experiments.Prepared{
		Bench: &bench.Benchmark{Name: name, Source: src},
		Graph: g,
	})
}

// cheapConfig keeps per-point ILP solves in the low milliseconds; the
// generous timeout means the deterministic node cap, never the wall
// clock, truncates the search.
func cheapConfig() core.Config {
	return core.Config{
		MaxItemsPerILP:   6,
		MaxCandsPerClass: 2,
		MaxILPNodes:      20,
		ILPTimeout:       30 * time.Second,
		ILPRelGap:        0.1,
	}
}

func cheapGA() GAConfig {
	return GAConfig{Population: 12, Generations: 12}
}

func TestEngineSweepDeterministicAndCached(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep; skipped in -short mode")
	}
	points := tinySpace().Enumerate()
	workloads := []*Workload{
		testWorkload(t, "tiny1", tinyProgram),
		testWorkload(t, "tiny2", tinyProgram2),
	}

	run := func(workers int) (*SweepResult, *solstore.Store) {
		store := solstore.New(solstore.Options{})
		eng := &Engine{Workers: workers, Config: cheapConfig(), GA: cheapGA(), Seed: 42, Store: store}
		res, err := eng.Run(context.Background(), points, workloads)
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res, store
	}

	r1, s1 := run(2)
	r2, _ := run(1) // different worker count must not change results

	if len(r1.Rows) != len(points)*len(workloads) {
		t.Fatalf("got %d rows, want %d", len(r1.Rows), len(points)*len(workloads))
	}
	if len(r1.Summaries) != len(points) {
		t.Fatalf("got %d summaries, want %d", len(r1.Summaries), len(points))
	}
	if len(r1.Front) == 0 || len(r1.Front) > len(points) {
		t.Fatalf("front size %d out of range", len(r1.Front))
	}

	for _, format := range []string{FormatCSV, FormatMarkdown, FormatJSON} {
		a, err := r1.Render(format)
		if err != nil {
			t.Fatalf("render %s: %v", format, err)
		}
		b, err := r2.Render(format)
		if err != nil {
			t.Fatalf("render %s: %v", format, err)
		}
		if a != b {
			t.Errorf("%s output differs between identical sweeps (worker counts 2 vs 1)", format)
		}
	}

	// Warm re-run over the same store: every job hits, and the rendered
	// report is byte-identical to the cold run.
	eng := &Engine{Workers: 2, Config: cheapConfig(), GA: cheapGA(), Seed: 42, Store: s1}
	r3, err := eng.Run(context.Background(), points, workloads)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	if r3.CacheMisses != 0 || r3.CacheHits != len(r1.Rows) {
		t.Errorf("warm run: %d hits / %d misses, want %d/0", r3.CacheHits, r3.CacheMisses, len(r1.Rows))
	}
	if r3.HitRate() != 1 {
		t.Errorf("warm hit rate = %g, want 1", r3.HitRate())
	}
	cold, _ := r1.Render(FormatCSV)
	warm, _ := r3.Render(FormatCSV)
	if cold != warm {
		t.Errorf("warm (cached) CSV differs from cold CSV")
	}
}

func TestEngineParallelWorkersDeterminism(t *testing.T) {
	// A multi-worker sweep must render byte-identically to a sequential
	// one: results are indexed by job slot and the GA seed derives from
	// the cache key, not from scheduling order. Single-class points keep
	// this cheap enough to run under -race in -short mode.
	spec := tinySpace()
	spec.ClocksMHz = []float64{100, 250, 500}
	spec.MaxClasses = 1
	points := spec.Enumerate()
	if len(points) != 3 {
		t.Fatalf("got %d single-class points, want 3", len(points))
	}
	w := testWorkload(t, "tiny2", tinyProgram2)
	render := func(workers int) string {
		eng := &Engine{Workers: workers, Config: cheapConfig(), GA: cheapGA(), Seed: 42}
		res, err := eng.Run(context.Background(), points, []*Workload{w})
		if err != nil {
			t.Fatalf("sweep with %d workers: %v", workers, err)
		}
		csv, err := res.Render(FormatCSV)
		if err != nil {
			t.Fatal(err)
		}
		return csv
	}
	if render(4) != render(1) {
		t.Errorf("4-worker sweep differs from sequential sweep")
	}
}

func TestEngineIntraRunCacheHits(t *testing.T) {
	// Both scenarios of a single-class platform resolve to the same main
	// class, so the second scenario's jobs share the first's key: each
	// key is evaluated once, by its first job, whatever the worker
	// count, and the duplicates are recalled as hits.
	spec := tinySpace()
	spec.MaxClasses = 1
	spec.Scenarios = nil // withDefaults: both scenarios
	points := spec.Enumerate()
	if len(points) != 4 {
		t.Fatalf("expected 4 scenario-paired points, got %d", len(points))
	}
	w := testWorkload(t, "tiny2", tinyProgram2)
	run := func(workers int) (*SweepResult, string) {
		eng := &Engine{Workers: workers, Config: cheapConfig(), GA: cheapGA(), Seed: 1}
		res, err := eng.Run(context.Background(), points, []*Workload{w})
		if err != nil {
			t.Fatalf("sweep with %d workers: %v", workers, err)
		}
		csv, err := res.Render(FormatCSV)
		if err != nil {
			t.Fatal(err)
		}
		return res, csv
	}
	seq, seqCSV := run(1)
	if seq.CacheHits != len(points)/2 || seq.CacheMisses != len(points)/2 {
		t.Errorf("sequential sweep: %d hits / %d misses, want %d/%d (one per duplicate scenario)",
			seq.CacheHits, seq.CacheMisses, len(points)/2, len(points)/2)
	}
	par, parCSV := run(4)
	if par.CacheHits != seq.CacheHits || par.CacheMisses != seq.CacheMisses {
		t.Errorf("4 workers: %d hits / %d misses, 1 worker: %d/%d",
			par.CacheHits, par.CacheMisses, seq.CacheHits, seq.CacheMisses)
	}
	if par.RegionMisses != seq.RegionMisses {
		t.Errorf("4 workers solved %d regions, 1 worker %d", par.RegionMisses, seq.RegionMisses)
	}
	if parCSV != seqCSV {
		t.Errorf("4-worker CSV differs from the sequential one")
	}
}

// TestEngineOutcomeKeyCoversGA checks a recalled Outcome is keyed by the
// GA seed and settings as well: a sweep with another seed or GA over a
// warm store must compute its GA baseline afresh, not return the
// earlier sweep's.
func TestEngineOutcomeKeyCoversGA(t *testing.T) {
	prep, err := experiments.Prepare(bench.ByName("latnrm_32"))
	if err != nil {
		t.Fatal(err)
	}
	w := PrepareWorkload(prep)
	points := tinySpace().Enumerate()[3:5]
	ga := GAConfig{Population: 4, Generations: 2}
	sweep := func(store *solstore.Store, seed int64, ga GAConfig) (*SweepResult, string) {
		eng := &Engine{Workers: 1, Config: cheapConfig(), GA: ga, Seed: seed, Store: store}
		res, err := eng.Run(context.Background(), points, []*Workload{w})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		csv, err := res.Render(FormatCSV)
		if err != nil {
			t.Fatal(err)
		}
		return res, csv
	}
	_, fresh := sweep(nil, 2, ga)
	store := solstore.New(solstore.Options{})
	sweep(store, 1, ga)
	res, warm := sweep(store, 2, ga)
	if res.CacheHits != 0 {
		t.Errorf("seed-2 sweep recalled %d seed-1 outcomes", res.CacheHits)
	}
	if warm != fresh {
		t.Errorf("seed-2 sweep over a seed-1 store differs from a fresh seed-2 sweep:\n%s\nwant:\n%s", warm, fresh)
	}
	ga.Generations = 3
	if res, _ := sweep(store, 2, ga); res.CacheHits != 0 {
		t.Errorf("sweep with other GA settings recalled %d outcomes", res.CacheHits)
	}
}

// TestEngineCrossPointRegionReuse checks the shared region-solve store
// pays off across sweep points: two points on the same platform with
// different main classes miss the whole-solution cache but share their
// entire region workload (the parallelizer solves every region for
// every class), and a second sweep with another seed over the warm
// store misses every outcome but re-solves no region.
func TestEngineCrossPointRegionReuse(t *testing.T) {
	spec := tinySpace()
	spec.Scenarios = []platform.Scenario{platform.ScenarioAccelerator, platform.ScenarioSlowerCores}
	var pair []Point
	for _, p := range spec.Enumerate() {
		if len(p.Platform.Classes) < 2 {
			continue
		}
		if len(pair) == 1 && pair[0].Platform.Fingerprint() == p.Platform.Fingerprint() &&
			pair[0].Scenario.MainClass(pair[0].Platform) != p.Scenario.MainClass(p.Platform) {
			pair = append(pair, p)
			break
		}
		pair = pair[:0]
		pair = append(pair, p)
	}
	if len(pair) != 2 {
		t.Fatalf("no scenario pair with distinct main classes enumerated")
	}
	w := testWorkload(t, "tiny1", tinyProgram)
	store := solstore.New(solstore.Options{})

	run := func(seed int64) *SweepResult {
		eng := &Engine{Workers: 1, Config: cheapConfig(), GA: cheapGA(), Seed: seed, Store: store}
		res, err := eng.Run(context.Background(), pair, []*Workload{w})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res
	}

	cold := run(42)
	if cold.CacheHits != 0 {
		t.Fatalf("distinct main classes still hit the whole-solution cache (%d hits)", cold.CacheHits)
	}
	if cold.RegionMisses == 0 {
		t.Errorf("cold sweep recorded no region-store misses; store not consulted")
	}
	if cold.RegionHits == 0 {
		t.Errorf("second point reused no region solves; want cross-point hits")
	}

	// Another seed, warm shared store: every outcome misses, and every
	// region solve of every point is served from the store.
	warm := run(43)
	if warm.CacheMisses != len(warm.Rows) {
		t.Fatalf("other seed unexpectedly hit (%d misses, want %d)", warm.CacheMisses, len(warm.Rows))
	}
	if warm.RegionMisses != 0 {
		t.Errorf("warm sweep re-solved %d regions; want 0", warm.RegionMisses)
	}
	if warm.RegionHits == 0 {
		t.Errorf("warm sweep recorded no region-store hits")
	}
	if warm.RegionHitRate() != 1 {
		t.Errorf("warm region hit rate = %g, want 1", warm.RegionHitRate())
	}
}

// TestEngineSharedStoreDefault checks the nil-Store default: each Run
// gets a private store, threaded through the parallelizer so region
// reuse needs no extra wiring, and a second Run starts cold.
func TestEngineSharedStoreDefault(t *testing.T) {
	spec := tinySpace()
	spec.MaxClasses = 1
	points := spec.Enumerate()
	w := testWorkload(t, "tiny2", tinyProgram2)
	eng := &Engine{Workers: 1, Config: cheapConfig(), GA: cheapGA(), Seed: 7}
	for run := 0; run < 2; run++ {
		res, err := eng.Run(context.Background(), points, []*Workload{w})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		if res.RegionMisses == 0 {
			t.Errorf("run %d: private store saw no region traffic; engine did not share it", run)
		}
		if res.CacheHits != 0 {
			t.Errorf("run %d recalled %d outcomes from an earlier run", run, res.CacheHits)
		}
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := testWorkload(t, "tiny1", tinyProgram)
	eng := &Engine{Config: cheapConfig(), GA: cheapGA()}
	if _, err := eng.Run(ctx, tinySpace().Enumerate(), []*Workload{w}); err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

func TestEngineEmptySweep(t *testing.T) {
	eng := &Engine{}
	if _, err := eng.Run(context.Background(), nil, nil); err == nil {
		t.Fatalf("empty sweep did not error")
	}
}

// TestEngineGolden pins the exact rendered CSV of a fixed one-point
// sweep. Run with -update to regenerate after intentional changes.
func TestEngineGolden(t *testing.T) {
	points := tinySpace().Enumerate()
	var pt Point
	for _, p := range points {
		if p.ID == "500x2/acc" {
			pt = p
		}
	}
	if pt.Platform == nil {
		t.Fatalf("point 500x2/acc not enumerated")
	}
	w := testWorkload(t, "tiny1", tinyProgram)
	eng := &Engine{Workers: 1, Config: cheapConfig(), GA: cheapGA(), Seed: 42}
	res, err := eng.Run(context.Background(), []Point{pt}, []*Workload{w})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	got, err := res.Render(FormatCSV)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	golden := filepath.Join("testdata", "golden_sweep.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("CSV drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
