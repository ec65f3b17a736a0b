// Package dse is the design-space exploration engine: it sweeps a
// generated space of heterogeneous platform configurations (processor
// class clock mixes, per-class core counts, main-core scenarios) over a
// set of benchmarks, running the full parallelize→simulate pipeline for
// every point on a worker pool, and reports the Pareto-optimal
// configurations under (speedup, core count, energy).
//
// The paper evaluates two hand-picked four-core platforms; its ILP
// formulation is parameterized over arbitrary class mixes, which leaves
// open the question this package answers: which heterogeneous
// configuration is worth building for a given workload. Three
// ingredients keep the sweep tractable on one machine:
//
//   - a worker-pool executor (one ILP pipeline per sweep point, all
//     points independent),
//   - content-addressed outcomes keyed by (canonical HTG hash, platform
//     fingerprint, main class, parallelizer config, seed, GA settings),
//     kept in the shared solution store and optionally on disk, so
//     repeated points and re-runs hit instead of re-solving,
//   - a seeded bias-elitist genetic algorithm that searches task→core
//     mappings directly as a cheap baseline next to the exact ILP,
//     following Quan & Pimentel (arXiv:1406.7539); the per-point
//     quality gap quantifies what the heuristic gives up.
package dse

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/platform"
)

// Point is one design point of the swept space: a concrete platform
// plus the scenario that selects its main core.
type Point struct {
	// ID names the point deterministically (derived from the class mix
	// and scenario), e.g. "100x1+500x2/acc".
	ID string
	// Platform is the candidate MPSoC configuration.
	Platform *platform.Platform
	// Scenario selects the class hosting the sequential main task.
	Scenario platform.Scenario
}

// SpaceSpec describes the platform space to generate: every subset of
// the clock menu up to MaxClasses classes, every per-class core count in
// [1, MaxCoresPerClass] whose total stays within [MinTotalCores,
// MaxTotalCores], crossed with the scenarios.
type SpaceSpec struct {
	// ClocksMHz is the menu of class clock frequencies.
	ClocksMHz []float64
	// MaxClasses bounds the number of distinct classes per platform.
	MaxClasses int
	// MaxCoresPerClass bounds each class's core count.
	MaxCoresPerClass int
	// MinTotalCores / MaxTotalCores bound the platform size. Platforms
	// with a single core are never interesting (no parallelism), so
	// MinTotalCores is clamped to at least 2.
	MinTotalCores, MaxTotalCores int
	// Scenarios lists the main-core selection policies to cross in.
	Scenarios []platform.Scenario
}

// DefaultSpace is the shipped sweep space: clock menu spanning the
// paper's 100–500 MHz range, up to three classes of up to four cores
// each, two to eight cores total, both evaluation scenarios. It
// enumerates to a few thousand points before sampling.
func DefaultSpace() SpaceSpec {
	return SpaceSpec{
		ClocksMHz:        []float64{100, 200, 250, 300, 400, 500},
		MaxClasses:       3,
		MaxCoresPerClass: 4,
		MinTotalCores:    2,
		MaxTotalCores:    8,
		Scenarios:        []platform.Scenario{platform.ScenarioAccelerator, platform.ScenarioSlowerCores},
	}
}

func (s SpaceSpec) withDefaults() SpaceSpec {
	if len(s.ClocksMHz) == 0 {
		s = DefaultSpace()
	}
	if s.MaxClasses <= 0 {
		s.MaxClasses = 3
	}
	if s.MaxCoresPerClass <= 0 {
		s.MaxCoresPerClass = 4
	}
	if s.MinTotalCores < 2 {
		s.MinTotalCores = 2
	}
	if s.MaxTotalCores <= 0 {
		s.MaxTotalCores = 8
	}
	if len(s.Scenarios) == 0 {
		s.Scenarios = []platform.Scenario{platform.ScenarioAccelerator, platform.ScenarioSlowerCores}
	}
	return s
}

// Enumerate generates every point of the space in a deterministic
// order: clock subsets in ascending lexicographic order, core-count
// vectors in odometer order, scenarios in spec order.
func (s SpaceSpec) Enumerate() []Point {
	s = s.withDefaults()
	clocks := append([]float64(nil), s.ClocksMHz...)
	sort.Float64s(clocks)
	var points []Point
	var subset []float64
	var pick func(start int)
	pick = func(start int) {
		if len(subset) > 0 {
			counts := make([]int, len(subset))
			s.emitCounts(subset, counts, 0, &points)
		}
		if len(subset) == s.MaxClasses {
			return
		}
		for i := start; i < len(clocks); i++ {
			subset = append(subset, clocks[i])
			pick(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	pick(0)
	return points
}

// emitCounts fills counts[i:] with every admissible per-class count
// vector and emits the resulting platforms crossed with the scenarios.
func (s SpaceSpec) emitCounts(clocks []float64, counts []int, i int, out *[]Point) {
	if i == len(counts) {
		total := 0
		for _, c := range counts {
			total += c
		}
		if total < s.MinTotalCores || total > s.MaxTotalCores {
			return
		}
		pf := buildPlatform(clocks, counts)
		for _, sc := range s.Scenarios {
			*out = append(*out, Point{
				ID:       pointID(clocks, counts, sc),
				Platform: pf,
				Scenario: sc,
			})
		}
		return
	}
	for c := 1; c <= s.MaxCoresPerClass; c++ {
		counts[i] = c
		s.emitCounts(clocks, counts, i+1, out)
	}
	counts[i] = 0
}

// Generate enumerates the space and, when it holds more than n points,
// draws a seeded uniform sample of n points. The returned slice is
// always sorted by point ID, so equal (spec, n, seed) inputs produce
// byte-identical sweeps.
func (s SpaceSpec) Generate(n int, seed int64) []Point {
	all := s.Enumerate()
	if n > 0 && len(all) > n {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		all = all[:n]
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// buildPlatform constructs the platform for one clock/count mix, using
// the library's default bus and task-creation overheads (the paper's
// shared-bus platform model) so points differ only in the class mix.
func buildPlatform(clocks []float64, counts []int) *platform.Platform {
	base := platform.ConfigA()
	pf := &platform.Platform{
		Name:          mixName(clocks, counts),
		BusLatencyNs:  base.BusLatencyNs,
		BusBytesPerNs: base.BusBytesPerNs,
		TaskCreateNs:  base.TaskCreateNs,
	}
	for i, mhz := range clocks {
		pf.Classes = append(pf.Classes, platform.ProcClass{
			Name:      fmt.Sprintf("ARM@%.0fMHz", mhz),
			MHz:       mhz,
			Count:     counts[i],
			CPIFactor: 1,
		})
	}
	return pf
}

func mixName(clocks []float64, counts []int) string {
	name := ""
	for i, mhz := range clocks {
		if i > 0 {
			name += "+"
		}
		name += fmt.Sprintf("%.0fx%d", mhz, counts[i])
	}
	return name
}

func pointID(clocks []float64, counts []int, sc platform.Scenario) string {
	tag := "acc"
	if sc == platform.ScenarioSlowerCores {
		tag = "slow"
	}
	return mixName(clocks, counts) + "/" + tag
}
