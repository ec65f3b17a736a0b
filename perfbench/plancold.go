package main

import (
	"fmt"
	"math"
	"time"

	heteropar "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/solstore"
)

// noClock is the per-ILP wall-clock cap of the clock-free workloads: far
// above any solve, so the node cap and proven optimality end every
// search and the work does not depend on machine speed or load (the
// rule dse.SweepConfig follows).
const noClock = time.Hour

// planCold runs the plan_cold workload: cold plans of every UTDSP
// program through heteropar.Parallelize, each followed by a warm plan
// of the same program under the other scenario on the store the cold
// plan filled.
func planCold(r *run) error {
	// Set-up validates every generated input: each program must
	// compile and run under the profiler.
	validate := func() (func(), error) {
		for _, b := range bench.All() {
			prog, err := minic.Compile(b.Source)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			if _, err := interp.New(prog).Run(); err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
		}
		return nil, nil
	}
	if err := r.timeSetup(validate); err != nil {
		return err
	}
	if r.trace {
		return planColdTraced(r)
	}

	reg := obs.NewRegistry()
	stores := map[string]*solstore.Store{}
	speedups := map[string]float64{}
	var cold, warm, effs []float64
	ok := 0
	start := now()
	var lastRound time.Duration
	for round := int64(0); round == 0 || since(start)+lastRound <= r.seconds; round++ {
		t0 := now()
		for _, op := range planRound(r.seed*1000 + round) {
			if !op.Warm {
				stores[op.Prog.Name] = solstore.New(solstore.Options{Metrics: reg})
			}
			st := stores[op.Prog.Name]
			before := snapshot(reg, st)
			pf := platformByName(op.Prog.Platform)
			settle()
			opStart := now()
			rep, err := heteropar.Parallelize(bench.ByName(op.Prog.Name).Source, heteropar.Options{
				Platform:   pf,
				Scenario:   op.Scenario,
				MaxILPTime: noClock,
				Store:      st,
				Metrics:    reg,
			})
			d := since(opStart)
			r.attempted++
			if err != nil {
				r.failed++
				r.check(false, "%s: %v", op.input(), err)
				continue
			}
			w := snapshot(reg, st).minus(before)
			r.checkPlanWork(op, w)
			r.checkSameSpeedup(speedups, op.input(), rep.MeasuredSpeedup)
			if op.Warm {
				warm = append(warm, ms(d))
			} else {
				cold = append(cold, ms(d))
			}
			effs = append(effs, rep.MeasuredSpeedup/rep.TheoreticalLimit())
			ok++
			r.note(opKind(op.Warm), op.input(), workCounters(w), map[string]string{
				"speedup": fmt.Sprintf("%.17g", rep.MeasuredSpeedup),
				"tasks":   fmt.Sprint(rep.NumTasks()),
			})
		}
		lastRound = since(t0)
	}
	elapsed := since(start)
	r.set("ops_per_s", "1/s", float64(ok)/elapsed.Seconds())
	r.setPercentile("cold_ms_p50", cold, 0.5)
	r.setPercentile("warm_ms_p50", warm, 0.5)
	r.set("efficiency_geomean", "ratio", geomean(effs))
	r.set("ok_share", "share", float64(ok)/float64(r.attempted))
	return r.retimeSetup(validate)
}

func opKind(warm bool) string {
	if warm {
		return "warm"
	}
	return "cold"
}

// checkPlanWork applies the clock guard (no solve may stop on the wall
// clock) and checks that a warm plan solved nothing.
func (r *run) checkPlanWork(op planOp, w work) {
	r.check(w.Timeouts == 0, "%s: %d solves stopped on the wall clock", op.input(), w.Timeouts)
	if op.Warm {
		r.check(w.Solves == 0 && w.StoreMisses == 0,
			"%s: warm plan solved %d ILPs (%d store misses)", op.input(), w.Solves, w.StoreMisses)
	}
}

// checkSameSpeedup checks that every plan of one input — cold, warm or
// replayed layer by layer — measures the same speedup.
func (r *run) checkSameSpeedup(seen map[string]float64, input string, speedup float64) {
	if prev, ok := seen[input]; ok {
		r.check(prev == speedup, "%s: speedup %v, earlier plan of the same input %v", input, speedup, prev)
		return
	}
	r.check(speedup > 0 && !math.IsInf(speedup, 0), "%s: speedup %v", input, speedup)
	seen[input] = speedup
}

// planColdTraced replays plan_cold operations layer by layer. Each
// program's cold and warm plan run twice, each on a store of its own:
// through the facade without spans, and as the traced replica.
func planColdTraced(r *run) error {
	lr := &layerReport{}
	facadeReg, replicaReg := obs.NewRegistry(), obs.NewRegistry()
	var total work
	var facadeStore, replicaStore *solstore.Store
	speedups := map[string]float64{}
	start := now()
	var lastPair time.Duration
	for round := int64(0); ; round++ {
		ops := planRound(r.seed*1000 + round)
		for i, op := range ops {
			if !op.Warm && (round > 0 || i > 0) && since(start)+lastPair > r.seconds {
				lr.finish(r, total)
				return nil
			}
			t0 := now()
			if !op.Warm {
				facadeStore = solstore.New(solstore.Options{Metrics: facadeReg})
				replicaStore = solstore.New(solstore.Options{Metrics: replicaReg})
			}
			src := bench.ByName(op.Prog.Name).Source
			pf := platformByName(op.Prog.Platform)
			settle()
			facadeStart := now()
			rep, err := heteropar.Parallelize(src, heteropar.Options{
				Platform: pf, Scenario: op.Scenario, MaxILPTime: noClock, Store: facadeStore, Metrics: facadeReg,
			})
			lr.untraced += since(facadeStart)
			r.attempted++
			if err != nil {
				r.failed++
				r.check(false, "%s: %v", op.input(), err)
				continue
			}
			before := snapshot(replicaReg, replicaStore)
			settle()
			out, err := lr.replay(replicaIn{
				src:       src,
				pf:        pf,
				mainClass: op.Scenario.MainClass(pf),
				cfg:       core.Config{ILPTimeout: noClock, Store: replicaStore, Metrics: replicaReg},
			})
			if err != nil {
				r.failed++
				r.check(false, "%s traced: %v", op.input(), err)
				continue
			}
			w := snapshot(replicaReg, replicaStore).minus(before)
			total = total.plus(w)
			r.checkPlanWork(op, w)
			r.checkSameSpeedup(speedups, op.input(), rep.MeasuredSpeedup)
			r.checkSameSpeedup(speedups, op.input(), out.speedup)
			counters := workCounters(w)
			counters["interp.stmts"] = out.stmts
			counters["ilp.proved_optimal"] = int64(out.optimal)
			r.note(opKind(op.Warm), op.input(), counters, map[string]string{"speedup": fmt.Sprintf("%.17g", out.speedup)})
			if op.Warm {
				lastPair += since(t0)
			} else {
				lastPair = since(t0)
			}
		}
	}
}
