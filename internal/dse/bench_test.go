package dse

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/htg"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/platform"
	"repro/internal/solstore"
)

// benchPair returns a scenario pair on one multi-class platform — the
// canonical cross-point region-reuse case — plus a prepared workload.
func benchPair(b *testing.B) ([]Point, *Workload) {
	b.Helper()
	spec := tinySpace()
	spec.Scenarios = []platform.Scenario{platform.ScenarioAccelerator, platform.ScenarioSlowerCores}
	var pair []Point
	for _, p := range spec.Enumerate() {
		if len(p.Platform.Classes) < 2 {
			continue
		}
		if len(pair) == 1 && pair[0].Platform.Fingerprint() == p.Platform.Fingerprint() {
			pair = append(pair, p)
			break
		}
		pair = pair[:0]
		pair = append(pair, p)
	}
	if len(pair) != 2 {
		b.Fatal("no scenario pair enumerated")
	}
	prog, err := minic.Compile(tinyProgram)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := interp.New(prog).Run()
	if err != nil {
		b.Fatal(err)
	}
	g, err := htg.Build(prog, prof, htg.Config{})
	if err != nil {
		b.Fatal(err)
	}
	w := PrepareWorkload(&experiments.Prepared{
		Bench: &bench.Benchmark{Name: "tiny1", Source: tinyProgram},
		Graph: g,
	})
	return pair, w
}

func sweepOnce(b *testing.B, pair []Point, w *Workload, store *solstore.Store, seed int64) *SweepResult {
	b.Helper()
	eng := &Engine{Workers: 1, Config: cheapConfig(), GA: cheapGA(), Seed: seed, Store: store, SkipAudit: true}
	res, err := eng.Run(context.Background(), pair, []*Workload{w})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSweepPointCold measures a two-point sweep where every layer
// starts cold: the store holding outcomes and region solves is fresh
// each iteration (the second point still reuses the first's regions).
func BenchmarkSweepPointCold(b *testing.B) {
	pair, w := benchPair(b)
	var res *SweepResult
	for i := 0; i < b.N; i++ {
		res = sweepOnce(b, pair, w, solstore.New(solstore.Options{}), 42)
	}
	b.ReportMetric(100*res.RegionHitRate(), "region-hit-%")
	b.ReportMetric(float64(res.RegionDedups), "dedups")
}

// BenchmarkSweepPointWarm measures the same sweep against a region
// store warmed by one priming sweep, with a new seed each iteration so
// every outcome misses while every region ILP is served from the store.
func BenchmarkSweepPointWarm(b *testing.B) {
	pair, w := benchPair(b)
	store := solstore.New(solstore.Options{})
	sweepOnce(b, pair, w, store, 42)
	b.ResetTimer()
	var res *SweepResult
	for i := 0; i < b.N; i++ {
		res = sweepOnce(b, pair, w, store, int64(43+i))
	}
	b.ReportMetric(100*res.RegionHitRate(), "region-hit-%")
	b.ReportMetric(float64(res.RegionDedups), "dedups")
}
