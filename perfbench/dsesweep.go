package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/solstore"
)

// dsePrograms are the prepared workloads every sweep point evaluates.
var dsePrograms = []string{"mult_10", "fir_256"}

// dseWorkers is the engine's pool width, the CPU count of the reference
// machine.
const dseWorkers = 2

// minSteps is the fewest dse_sweep steps a run makes, so that even a
// slow machine reports the cold-step median over twenty steps.
const minSteps = 20

// maxSteps bounds the platforms drawn per run.
const maxSteps = 60

// dseSweep runs the dse_sweep workload. Each step draws one platform and
// makes two dse.Engine sweeps over the prepared programs on a fresh
// store: the cold sweep of its accelerator-scenario point, then the warm
// sweep of that point and its slower-cores twin. In the warm sweep the
// point's outcomes come from the whole-solution cache and the twin
// reuses every region solve of the point.
func dseSweep(r *run) error {
	var wls []*dse.Workload
	prepare := func() (func(), error) {
		wls = nil
		for _, name := range dsePrograms {
			p, err := experiments.Prepare(bench.ByName(name))
			if err != nil {
				return nil, err
			}
			wls = append(wls, dse.PrepareWorkload(p))
		}
		return nil, nil
	}
	if err := r.timeSetup(prepare); err != nil {
		return err
	}
	plats := dsePlatforms(r.seed, maxSteps)
	if r.trace {
		return dseTraced(r, wls, plats)
	}
	reg := obs.NewRegistry()
	var cold, warm, effs []float64
	evals := 0
	start := now()
	var lastStep time.Duration
	for i, pt := range plats {
		if i >= minSteps && since(start)+lastStep > r.seconds {
			break
		}
		t0 := now()
		st := solstore.New(solstore.Options{Metrics: reg})
		eng := &dse.Engine{Workers: dseWorkers, Config: dse.SweepConfig(), Seed: r.seed, Store: st, Obs: &obs.Observer{Metrics: reg}}
		for j, pts := range [][]dse.Point{{pt}, {pt, slowTwin(pt)}} {
			before := snapshot(reg, st)
			settle()
			stepStart := now()
			res, err := eng.Run(context.Background(), pts, wls)
			d := since(stepStart)
			r.attempted += len(pts) * len(wls)
			if err != nil {
				r.failed += len(pts) * len(wls)
				r.check(false, "%s: %v", pt.ID, err)
				continue
			}
			w := snapshot(reg, st).minus(before)
			outputs := r.checkSweep(pts, res, w)
			evals += len(res.Rows)
			// Plan quality covers the first minSteps steps only, which
			// every run makes, so it depends on the seed and the code but
			// not on how many steps the machine's speed allowed.
			for _, row := range res.Rows {
				if i < minSteps {
					effs = append(effs, row.Outcome.Speedup/row.Point.Platform.TheoreticalSpeedup(row.Point.Scenario.MainClass(row.Point.Platform)))
				}
			}
			if j == 0 {
				cold = append(cold, ms(d))
			} else {
				warm = append(warm, ms(d))
				r.check(res.CacheHits == len(wls), "%s: warm sweep recalled %d outcomes, want %d", pt.ID, res.CacheHits, len(wls))
				r.check(w.Solves == 0, "%s: warm sweep solved %d ILPs", pt.ID, w.Solves)
			}
			counters := workCounters(w)
			counters["dse.cache_hits"] = int64(res.CacheHits)
			r.note(opKind(j == 1), pt.ID, counters, outputs)
		}
		lastStep = since(t0)
	}
	elapsed := since(start)
	r.set("ops_per_s", "1/s", float64(evals)/elapsed.Seconds())
	r.setPercentile("cold_ms_p50", cold, 0.5)
	r.setPercentile("warm_ms_p50", warm, 0.5)
	r.set("efficiency_geomean", "ratio", geomean(effs))
	r.set("ok_share", "share", float64(evals)/float64(r.attempted))
	return r.retimeSetup(prepare)
}

// checkSweep applies the clock guard and checks every row of one sweep,
// returning the rows' speedups for the ledger.
func (r *run) checkSweep(pts []dse.Point, res *dse.SweepResult, w work) map[string]string {
	id := pts[0].ID
	r.check(w.Timeouts == 0, "%s: %d solves stopped on the wall clock", id, w.Timeouts)
	outputs := map[string]string{}
	for _, row := range res.Rows {
		r.check(row.Outcome.Speedup > 0, "%s %s: speedup %v", row.Point.ID, row.Bench, row.Outcome.Speedup)
		outputs[row.Point.ID+"/"+row.Bench] = fmt.Sprintf("%.17g", row.Outcome.Speedup)
	}
	r.check(len(res.Rows) == len(pts)*len(dsePrograms), "%s: %d rows for %d points × %d programs", id, len(res.Rows), len(pts), len(dsePrograms))
	return outputs
}

// engineGASeed is the seed dse.Engine gives the genetic algorithm of the
// job with the given cache key (its unexported gaSeed): the sweep seed
// mixed with the key by FNV-1a. The traced replica checks its GA result
// against the engine's, so a change to the engine's rule shows as a
// failed check.
func engineGASeed(seed int64, key string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	return int64(h.Sum64())
}

// dseTraced replays dse_sweep steps evaluation by evaluation under the
// benchmark's spans, next to one-worker engine sweeps of the same
// points for the untraced time. The warm sweep's recalled outcomes do
// no work and are not replayed.
func dseTraced(r *run, wls []*dse.Workload, plats []dse.Point) error {
	lr := &layerReport{}
	engineReg, replicaReg := obs.NewRegistry(), obs.NewRegistry()
	graphs := map[string]*dse.Workload{}
	for _, wl := range wls {
		graphs[wl.Name] = wl
	}
	var total work
	evals, cacheHits, regionHits, regionMisses := 0, 0, 0, 0
	start := now()
	var lastStep time.Duration
	for i, pt := range plats {
		if i > 0 && since(start)+lastStep > r.seconds {
			break
		}
		t0 := now()
		engineStore := solstore.New(solstore.Options{Metrics: engineReg})
		replicaStore := solstore.New(solstore.Options{Metrics: replicaReg})
		eng := &dse.Engine{Workers: 1, Config: dse.SweepConfig(), Seed: r.seed, Store: engineStore, Obs: &obs.Observer{Metrics: engineReg}}
		for j, pts := range [][]dse.Point{{pt}, {pt, slowTwin(pt)}} {
			before := snapshot(engineReg, engineStore)
			settle()
			engStart := now()
			res, err := eng.Run(context.Background(), pts, wls)
			lr.untraced += since(engStart)
			r.attempted += len(pts) * len(wls)
			if err != nil {
				r.failed += len(pts) * len(wls)
				r.check(false, "%s: %v", pt.ID, err)
				continue
			}
			r.checkSweep(pts, res, snapshot(engineReg, engineStore).minus(before))
			evals += len(res.Rows)
			cacheHits += res.CacheHits
			regionHits += res.RegionHits + res.RegionDedups
			regionMisses += res.RegionMisses
			for _, row := range res.Rows {
				if row.CacheHit {
					continue
				}
				wl := graphs[row.Bench]
				mainClass := row.Point.Scenario.MainClass(row.Point.Platform)
				cfg := dse.SweepConfig()
				key := dse.CacheKey(wl.Hash, row.Point.Platform, mainClass, cfg)
				cfg.Store, cfg.Metrics = replicaStore, replicaReg
				before := snapshot(replicaReg, replicaStore)
				out, err := lr.replay(replicaIn{
					graph:     wl.Prepared.Graph,
					pf:        row.Point.Platform,
					mainClass: mainClass,
					cfg:       cfg,
					gaSeed:    engineGASeed(r.seed, key),
				})
				if err != nil {
					r.failed++
					r.check(false, "%s %s traced: %v", row.Point.ID, row.Bench, err)
					continue
				}
				w := snapshot(replicaReg, replicaStore).minus(before)
				total = total.plus(w)
				r.check(w.Timeouts == 0, "%s %s: %d solves stopped on the wall clock", row.Point.ID, row.Bench, w.Timeouts)
				r.check(out.speedup == row.Outcome.Speedup && out.gaSpeedup == row.Outcome.GASpeedup,
					"%s %s: traced speedup %v and GA speedup %v, engine %v and %v",
					row.Point.ID, row.Bench, out.speedup, out.gaSpeedup, row.Outcome.Speedup, row.Outcome.GASpeedup)
				counters := workCounters(w)
				counters["ilp.proved_optimal"] = int64(out.optimal)
				r.note(opKind(j == 1), row.Point.ID+"/"+row.Bench, counters, nil)
			}
		}
		lastStep = since(t0)
	}
	lr.finish(r, total)
	r.set("dse.evals", "count", float64(evals))
	r.set("dse.cache_hits", "count", float64(cacheHits))
	ratio := 0.0
	if n := regionHits + regionMisses; n > 0 {
		ratio = float64(regionHits) / float64(n)
	}
	r.set("dse.region_hit_ratio", "share", ratio)
	return nil
}
