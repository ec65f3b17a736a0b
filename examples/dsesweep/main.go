// Example dsesweep explores a small heterogeneous-platform design space
// for one benchmark through the internal/dse library API: enumerate a
// space, sweep it on a worker pool, and print the
// Pareto-optimal platforms.
//
// Run with: go run ./examples/dsesweep
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/platform"
)

func main() {
	// A deliberately tiny space: two clock choices, up to two classes of
	// up to two cores, accelerator scenario only — 6 platforms.
	spec := dse.SpaceSpec{
		ClocksMHz:        []float64{100, 500},
		MaxClasses:       2,
		MaxCoresPerClass: 2,
		MinTotalCores:    2,
		MaxTotalCores:    4,
		Scenarios:        []platform.Scenario{platform.ScenarioAccelerator},
	}
	points := spec.Enumerate()

	prep, err := experiments.Prepare(bench.ByName("mult_10"))
	if err != nil {
		log.Fatal(err)
	}
	workloads := []*dse.Workload{dse.PrepareWorkload(prep)}

	eng := &dse.Engine{
		Config: dse.SweepConfig(),
		Seed:   1,
		// CacheDir: ".dse-cache" would persist outcomes across runs.
	}
	res, err := eng.Run(context.Background(), points, workloads)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("swept %d platforms over %s (%d cache hits intra-run)\n\n",
		len(res.Summaries), prep.Bench.Name, res.CacheHits)
	fmt.Println("Pareto front (speedup up, cores and energy down):")
	for _, s := range res.Front {
		fmt.Printf("  %-14s %d cores  %.2fx speedup (limit %.2fx)  %.0f uJ  GA gap %+.1f%%\n",
			s.Point.Platform.Name, s.Cores, s.GeoSpeedup, s.Limit,
			s.MeanEnergyUJ, s.MedianGAGapPct)
	}
}
