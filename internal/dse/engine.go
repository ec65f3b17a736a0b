package dse

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpsoc"
	"repro/internal/obs"
	"repro/internal/solstore"
)

// Workload is one prepared benchmark of the sweep: the analysis
// artifacts (compiled program, profile, HTG) are built once and shared
// read-only by every sweep point.
type Workload struct {
	Name     string
	Prepared *experiments.Prepared
	// Hash is the canonical HTG hash, the program's cache-key component.
	Hash string
}

// PrepareWorkload compiles, profiles and hashes one named bundled
// benchmark via the experiments package's prepared-benchmark path.
func PrepareWorkload(p *experiments.Prepared) *Workload {
	return &Workload{Name: p.Bench.Name, Prepared: p, Hash: HTGHash(p.Graph)}
}

// SweepConfig is the default parallelizer budget for sweep points: a
// much smaller problem size (clustering, candidate and task-bound caps)
// and branch-and-bound allowance than the single-program default — the
// sweep solves hundreds of pipelines, each within a few percent of its
// full-budget solution. It sets no wall-clock cap, so the deterministic
// node cap or the gap ends every search and sweep outputs do not depend
// on machine speed or load.
func SweepConfig() core.Config {
	return core.Config{
		MaxItemsPerILP:    8,
		MaxCandsPerClass:  3,
		MaxTasksPerRegion: 4,
		MaxILPNodes:       60,
		ILPRelGap:         0.05,
	}
}

// Engine runs the sweep: every (point, workload) pair is one job on a
// bounded worker pool.
type Engine struct {
	// Workers bounds pool size (default runtime.NumCPU()).
	Workers int
	// Config is the parallelizer configuration (default SweepConfig()).
	Config core.Config
	// GA tunes the genetic-algorithm baseline (defaults apply).
	GA GAConfig
	// Seed derives every stochastic decision (the GA's randomness);
	// equal seeds give byte-identical sweep results.
	Seed int64
	// Store holds every job's Outcome under a "dse|" key and is threaded
	// into each evaluation's parallelizer config, so neighboring sweep
	// points reuse region subproblems and a later Run over the same
	// store recalls earlier outcomes. A nil Store gets a private store
	// for each Run.
	Store *solstore.Store
	// CacheDir, when set, persists each computed Outcome as <key>.json
	// in this directory, and outcomes missing from the store are read
	// back from it, so a later process starts warm.
	CacheDir string
	// Obs receives phase spans and solver/cache metrics (may be nil).
	Obs *obs.Observer
	// SkipAudit disables the per-evaluation race-and-budget audit of every
	// produced solution (internal/analysis); cached rows are re-audited on
	// recall only through their original evaluation.
	SkipAudit bool
}

// Row is one evaluated (point, workload) pair.
type Row struct {
	Point    Point
	Bench    string
	Outcome  Outcome
	CacheHit bool
}

// PointSummary aggregates one point across all workloads.
type PointSummary struct {
	Point Point
	// Cores is the platform's total core count.
	Cores int
	// GeoSpeedup is the geometric-mean measured speedup across
	// workloads (the sweep's merit figure).
	GeoSpeedup float64
	// MeanEnergyUJ is the arithmetic-mean simulated energy.
	MeanEnergyUJ float64
	// Limit is the platform's theoretical speedup bound for the
	// scenario.
	Limit float64
	// MedianGAGapPct is the median GA-vs-ILP objective gap.
	MedianGAGapPct float64
	// Pareto marks membership in the sweep's Pareto front.
	Pareto bool
}

// SweepResult is the complete outcome of one sweep.
type SweepResult struct {
	Rows      []Row
	Summaries []PointSummary
	// Front is the Pareto-optimal subset of Summaries under
	// (maximize GeoSpeedup, minimize Cores, minimize MeanEnergyUJ),
	// best speedup first.
	Front []PointSummary
	// CacheHits counts this run's jobs whose Outcome was recalled (from
	// the store, CacheDir or an earlier job with the same key);
	// CacheMisses the jobs evaluated.
	CacheHits, CacheMisses int
	// RegionHits / RegionMisses / RegionDedups count this run's
	// region-solve store outcomes (Outcome lookups excluded): hits are region ILPs served from the shared store
	// instead of re-solved, dedups are concurrent duplicate solves
	// collapsed in flight. Cross-point reuse shows up here — two
	// points sharing a platform share their entire region workload.
	RegionHits, RegionMisses, RegionDedups int
	// Workloads lists the swept benchmark names in order.
	Workloads []string
}

// HitRate returns the run's cache hit rate in [0, 1].
func (r *SweepResult) HitRate() float64 {
	n := r.CacheHits + r.CacheMisses
	if n == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(n)
}

// RegionHitRate returns the run's region-solve store hit rate in
// [0, 1].
func (r *SweepResult) RegionHitRate() float64 {
	n := r.RegionHits + r.RegionMisses
	if n == 0 {
		return 0
	}
	return float64(r.RegionHits) / float64(n)
}

// MedianGAGapPct returns the median per-row GA-vs-ILP gap of the sweep.
func (r *SweepResult) MedianGAGapPct() float64 {
	gaps := make([]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		gaps = append(gaps, row.Outcome.GAGapPct)
	}
	return median(gaps)
}

// recall records where a job's Outcome came from.
type recall uint8

const (
	computed  recall = iota // solved in this run
	fromStore               // the store's "dse|" entry
	fromDisk                // a <key>.json file under CacheDir
	fromOwner               // an earlier job of this run with the same key
)

// job is one (point, workload) pair of a sweep. owner is the index of
// the first job with the same recall key; only owners are evaluated.
type job struct {
	pt        Point
	w         *Workload
	mainClass int
	cacheKey  string
	key       string
	owner     int
}

// Run executes the sweep over points × workloads. Jobs are independent
// and scheduled on min(Workers, NumCPU-bounded default) goroutines; a
// cancelled context stops the sweep at the next job boundary and
// returns the context error. The result is deterministic for equal
// (points, workloads, Config, GA, Seed) regardless of worker count.
// Jobs sharing a recall key are evaluated once, by the first of them
// in job order; the others copy its Outcome as cache hits.
func (e *Engine) Run(ctx context.Context, points []Point, workloads []*Workload) (*SweepResult, error) {
	if len(points) == 0 || len(workloads) == 0 {
		return nil, fmt.Errorf("dse: empty sweep (%d points, %d workloads)", len(points), len(workloads))
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.NumCPU() //repolint:allow numcpu (pool width only: points are independent and folded in point order)
	}
	store := e.Store
	if store == nil {
		store = solstore.New(solstore.Options{Metrics: e.Obs.M()})
	}
	sweep := e.Obs.T().Start("dse-sweep",
		obs.Int("points", len(points)),
		obs.Int("workloads", len(workloads)),
		obs.Int("workers", workers))
	defer sweep.End()

	jobs := make([]job, 0, len(points)*len(workloads))
	firstOf := map[string]int{}
	for _, pt := range points {
		mainClass := pt.Scenario.MainClass(pt.Platform)
		for _, w := range workloads {
			j := job{pt: pt, w: w, mainClass: mainClass, cacheKey: CacheKey(w.Hash, pt.Platform, mainClass, e.Config)}
			j.key = e.outcomeKey(j.cacheKey)
			if o, dup := firstOf[j.key]; dup {
				j.owner = o
			} else {
				j.owner = len(jobs)
				firstOf[j.key] = j.owner
			}
			jobs = append(jobs, j)
		}
	}
	rows := make([]Row, len(jobs))
	kinds := make([]recall, len(jobs))
	jobCh := make(chan int)
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	startStore := store.Stats()
	// Live sweep progress for the /metrics scrape surface: completed
	// jobs, throughput, remaining-work ETA and the running cache hit
	// ratio. All derived read-only from job completions — telemetry
	// only, never an input to any evaluation.
	m := e.Obs.M()
	completed := m.Counter("dse.points.completed")
	hitCount, missCount := m.Counter("dse.cache.hits"), m.Counter("dse.cache.misses")
	var liveHits, liveMisses atomic.Int64
	m.Gauge("dse.points.total").Set(float64(len(jobs)))
	sweepStart := time.Now() //repolint:allow timenow (throughput/ETA telemetry only)
	noteProgress := func(kind recall) {
		completed.Inc()
		if kind == computed {
			missCount.Inc()
			liveMisses.Add(1)
		} else {
			hitCount.Inc()
			liveHits.Add(1)
		}
		if m == nil {
			return
		}
		done := float64(completed.Value())
		elapsed := time.Since(sweepStart).Seconds() //repolint:allow timenow
		if elapsed > 0 {
			rate := done / elapsed
			m.Gauge("dse.points.per_sec").Set(rate)
			if rate > 0 {
				m.Gauge("dse.sweep.eta_seconds").Set((float64(len(jobs)) - done) / rate)
			}
		}
		h := liveHits.Load()
		m.Gauge("dse.cache.hit_ratio").Set(float64(h) / float64(h+liveMisses.Load()))
	}
	for w := 0; w < workers; w++ {
		// Concurrent dse-point spans would interleave on one track, so
		// each worker of a pool traces to its own.
		tr := e.Obs.T()
		if workers > 1 {
			tr = tr.Worker(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range jobCh {
				out, kind, err := e.evaluate(jobs[ji], store, tr)
				if err != nil {
					errOnce.Do(func() { firstEr = err })
					continue
				}
				rows[ji] = Row{Point: jobs[ji].pt, Bench: jobs[ji].w.Name, Outcome: out, CacheHit: kind != computed}
				kinds[ji] = kind
				noteProgress(kind)
			}
		}()
	}
	cancelled := false
feed:
	for ji, j := range jobs {
		if j.owner != ji {
			continue
		}
		// Check cancellation before offering the job so an
		// already-cancelled context never schedules new work (a select
		// with two ready cases picks randomly).
		select {
		case <-ctx.Done():
			cancelled = true
			break feed
		default:
		}
		select {
		case <-ctx.Done():
			cancelled = true
			break feed
		case jobCh <- ji:
		}
	}
	close(jobCh)
	wg.Wait()
	if cancelled {
		return nil, ctx.Err()
	}
	if firstEr != nil {
		return nil, firstEr
	}
	for ji, j := range jobs {
		if j.owner != ji {
			rows[ji] = Row{Point: j.pt, Bench: j.w.Name, Outcome: rows[j.owner].Outcome, CacheHit: true}
			kinds[ji] = fromOwner
			noteProgress(fromOwner)
		}
	}
	endStore := store.Stats()

	res := &SweepResult{Rows: rows}
	// The store's counters mix region-solve traffic with the engine's
	// one outcome lookup per evaluated job; subtract that lookup so the
	// Region* counters isolate region reuse.
	res.RegionHits = int(endStore.Hits - startStore.Hits)
	res.RegionMisses = int(endStore.Misses - startStore.Misses)
	res.RegionDedups = int(endStore.Dedups - startStore.Dedups)
	for _, kind := range kinds {
		switch kind {
		case computed:
			res.CacheMisses++
			res.RegionMisses--
		case fromStore:
			res.CacheHits++
			res.RegionHits--
		case fromDisk:
			res.CacheHits++
			res.RegionMisses--
		case fromOwner:
			res.CacheHits++
		}
	}
	for _, w := range workloads {
		res.Workloads = append(res.Workloads, w.Name)
	}
	res.Summaries = summarize(points, workloads, rows)
	res.Front = ParetoFront(res.Summaries)
	mark := map[string]bool{}
	for _, s := range res.Front {
		mark[s.Point.ID] = true
	}
	for i := range res.Summaries {
		res.Summaries[i].Pareto = mark[res.Summaries[i].Point.ID]
	}
	e.Obs.M().Gauge("dse.cache.hit_rate").Set(res.HitRate())
	e.Obs.M().Gauge("dse.region_store.hit_rate").Set(res.RegionHitRate())
	e.Obs.M().Gauge("dse.ga.median_gap_pct").Set(res.MedianGAGapPct())
	sweep.SetAttr(
		obs.Int("cache_hits", res.CacheHits),
		obs.Int("cache_misses", res.CacheMisses),
		obs.Int("region_hits", res.RegionHits),
		obs.Int("region_misses", res.RegionMisses),
		obs.Int("region_dedups", res.RegionDedups),
		obs.Float("ga_median_gap_pct", res.MedianGAGapPct()))
	return res, nil
}

// evaluate recalls one job's Outcome from the store, then from
// CacheDir, and otherwise computes it: ILP parallelization,
// simulation, and the GA baseline with its quality gap. A computed
// Outcome is stored and persisted; a disk hit is promoted to the store.
// The computation's span goes to tr.
func (e *Engine) evaluate(j job, store *solstore.Store, tr *obs.Tracer) (Outcome, recall, error) {
	if v, ok := store.Get(dseKeyPrefix + j.key); ok {
		return v.(Outcome), fromStore, nil
	}
	if out, ok := e.readOutcome(j.key); ok {
		store.Put(dseKeyPrefix+j.key, out)
		return out, fromDisk, nil
	}
	pt, w, mainClass := j.pt, j.w, j.mainClass
	span := tr.Start("dse-point",
		obs.String("point", pt.ID), obs.String("bench", w.Name))
	defer span.End()
	start := time.Now() //repolint:allow timenow (row-duration telemetry only)

	cfg := e.Config
	cfg.Metrics = e.Obs.M()
	cfg.Events = e.Obs.E()
	if cfg.Store == nil {
		// Share region subproblems across sweep points: two points on
		// the same platform (or any pair whose regions reduce to the
		// same solver-visible numbers) reuse each other's region
		// solves. Output-neutral, so the whole-solution CacheKey is
		// unaffected.
		cfg.Store = store
	}
	if !e.SkipAudit {
		cfg.Audit = analysis.AuditResult
	}
	res, err := core.Parallelize(w.Prepared.Graph, pt.Platform, mainClass, core.Heterogeneous, cfg)
	if err != nil {
		return Outcome{}, computed, fmt.Errorf("dse: %s on %s: %w", w.Name, pt.ID, err)
	}
	sim := mpsoc.New(pt.Platform, false)
	meas, err := sim.Run(res.Best, mainClass)
	if err != nil {
		return Outcome{}, computed, fmt.Errorf("dse: simulate %s on %s: %w", w.Name, pt.ID, err)
	}
	seq := sim.SequentialBaseline(w.Prepared.Graph, mainClass)
	ilpEst := res.EstimatedSpeedup(w.Prepared.Graph)
	ga := RunGA(w.Prepared.Graph, pt.Platform, mainClass, e.GA, gaSeed(e.Seed, j.cacheKey))
	gap := 0.0
	if ilpEst > 0 {
		gap = 100 * (ilpEst - ga.Speedup) / ilpEst
	}
	out := Outcome{
		Speedup:            mpsoc.Speedup(seq, meas.MakespanNs),
		EstimatedSpeedup:   ilpEst,
		MakespanNs:         meas.MakespanNs,
		SequentialNs:       seq,
		EnergyUJ:           meas.EnergyUJ,
		SequentialEnergyUJ: sim.SequentialEnergyUJ(w.Prepared.Graph, mainClass),
		NumTasks:           res.Best.NumTasks,
		NumILPs:            res.Stats.NumILPs,
		GASpeedup:          ga.Speedup,
		GAGapPct:           gap,
	}
	store.Put(dseKeyPrefix+j.key, out)
	if err := e.writeOutcome(j.key, out); err != nil {
		return Outcome{}, computed, err
	}
	e.Obs.M().Histogram("dse.point.duration").Observe(time.Since(start))
	span.SetAttr(obs.Float("speedup", out.Speedup), obs.Float("ga_gap_pct", gap))
	return out, computed, nil
}

// gaSeed mixes the sweep seed with a job's cache key so each job gets
// an independent, order-insensitive random stream.
func gaSeed(seed int64, key string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	return int64(h.Sum64())
}

// summarize folds rows into per-point aggregates in point order.
func summarize(points []Point, workloads []*Workload, rows []Row) []PointSummary {
	nw := len(workloads)
	out := make([]PointSummary, len(points))
	for pi, pt := range points {
		s := PointSummary{
			Point: pt,
			Cores: pt.Platform.NumCores(),
			Limit: pt.Platform.TheoreticalSpeedup(pt.Scenario.MainClass(pt.Platform)),
		}
		logSum := 0.0
		gaps := make([]float64, 0, nw)
		for wi := 0; wi < nw; wi++ {
			o := rows[pi*nw+wi].Outcome
			sp := o.Speedup
			if sp <= 0 {
				sp = 1e-9
			}
			logSum += logOf(sp)
			s.MeanEnergyUJ += o.EnergyUJ
			gaps = append(gaps, o.GAGapPct)
		}
		s.GeoSpeedup = expOf(logSum / float64(nw))
		s.MeanEnergyUJ /= float64(nw)
		s.MedianGAGapPct = median(gaps)
		out[pi] = s
	}
	return out
}
