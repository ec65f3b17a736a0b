package dse

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/solstore"
)

func TestCacheKeySensitivity(t *testing.T) {
	pf := platform.ConfigA()
	cfg := core.Config{}
	base := CacheKey("abcd", pf, 0, cfg)
	if len(base) != 32 {
		t.Fatalf("key length = %d, want 32 hex chars", len(base))
	}
	if CacheKey("abcd", pf, 0, cfg) != base {
		t.Errorf("key not stable across calls")
	}
	if CacheKey("ffff", pf, 0, cfg) == base {
		t.Errorf("HTG hash does not affect key")
	}
	if CacheKey("abcd", pf, 1, cfg) == base {
		t.Errorf("main class does not affect key")
	}
	other := platform.ConfigB()
	if CacheKey("abcd", other, 0, cfg) == base {
		t.Errorf("platform does not affect key")
	}
	cfg2 := core.Config{MaxILPNodes: 150, ILPTimeout: 30 * time.Second}
	if CacheKey("abcd", pf, 0, cfg2) == base {
		t.Errorf("config does not affect key")
	}
	// Zero config and explicit defaults share a key (Fingerprint resolves
	// defaults first).
	if CacheKey("abcd", pf, 0, core.Config{Tracer: obs.NewTracer()}) != base {
		t.Errorf("observability wiring leaked into the cache key")
	}
}

// TestCacheMemoryRoundTrip checks in-memory recall through a shared
// Store: a second Run on the store the first one filled recalls every
// outcome without touching the solver, renders the same CSV, and the
// dse.cache.* metrics count one miss and one hit per point.
func TestCacheMemoryRoundTrip(t *testing.T) {
	spec := tinySpace()
	spec.MaxClasses = 1
	points := spec.Enumerate()
	w := testWorkload(t, "tiny2", tinyProgram2)
	store := solstore.New(solstore.Options{})
	reg := obs.NewRegistry()
	sweep := func() (*SweepResult, string) {
		eng := &Engine{Workers: 2, Config: cheapConfig(), GA: cheapGA(), Seed: 1, Store: store, Obs: &obs.Observer{Metrics: reg}}
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

	cold, coldCSV := sweep()
	if cold.CacheHits != 0 || cold.CacheMisses != len(points) {
		t.Fatalf("empty store: %d hits / %d misses, want 0/%d", cold.CacheHits, cold.CacheMisses, len(points))
	}
	warm, warmCSV := sweep()
	if warm.CacheHits != len(points) || warm.CacheMisses != 0 {
		t.Fatalf("warm store: %d hits / %d misses, want %d/0", warm.CacheHits, warm.CacheMisses, len(points))
	}
	if warm.RegionHits+warm.RegionMisses+warm.RegionDedups != 0 {
		t.Errorf("recalled outcomes touched region solves: %d hits / %d misses / %d dedups",
			warm.RegionHits, warm.RegionMisses, warm.RegionDedups)
	}
	if warmCSV != coldCSV {
		t.Errorf("recalled CSV differs from the computed one")
	}
	if got := warm.HitRate(); got != 1 {
		t.Errorf("warm hit rate = %g, want 1", got)
	}
	if v := reg.Counter("dse.cache.hits").Value(); v != int64(len(points)) {
		t.Errorf("obs hit counter = %d, want %d", v, len(points))
	}
	if v := reg.Counter("dse.cache.misses").Value(); v != int64(len(points)) {
		t.Errorf("obs miss counter = %d, want %d", v, len(points))
	}
	if v := reg.Gauge("dse.cache.hit_ratio").Value(); v != 1 {
		t.Errorf("live hit ratio after the warm sweep = %g, want 1", v)
	}
}

// TestCacheDiskWarmStart checks CacheDir: a fresh Engine over the same
// directory — a second process — recalls every outcome from disk
// without touching the solver, and a sweep with another seed recalls
// none.
func TestCacheDiskWarmStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	spec := tinySpace()
	spec.MaxClasses = 1
	points := spec.Enumerate()
	w := testWorkload(t, "tiny2", tinyProgram2)
	sweep := func(seed int64) (*SweepResult, string) {
		eng := &Engine{Workers: 2, Config: cheapConfig(), GA: cheapGA(), Seed: seed, CacheDir: dir}
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

	cold, coldCSV := sweep(1)
	if cold.CacheMisses != len(points) {
		t.Fatalf("cold sweep: %d misses, want %d", cold.CacheMisses, len(points))
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != len(points) {
		t.Errorf("cache dir holds %d outcomes, want %d", len(files), len(points))
	}

	warm, warmCSV := sweep(1)
	if warm.CacheHits != len(points) || warm.CacheMisses != 0 {
		t.Errorf("warm start: %d hits / %d misses, want %d/0", warm.CacheHits, warm.CacheMisses, len(points))
	}
	if warm.RegionHits+warm.RegionMisses+warm.RegionDedups != 0 {
		t.Errorf("warm start touched region solves: %d hits / %d misses / %d dedups",
			warm.RegionHits, warm.RegionMisses, warm.RegionDedups)
	}
	if warmCSV != coldCSV {
		t.Errorf("disk-recalled CSV differs from the computed one")
	}

	if other, _ := sweep(2); other.CacheHits != 0 {
		t.Errorf("another seed recalled %d outcomes from disk", other.CacheHits)
	}
}
