package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ilp"
)

// The region pool: one set of solve tokens for the whole process, as
// many as the Go scheduler runs goroutines in parallel. Every region
// unit of every Parallelize call — concurrent sibling subtrees,
// concurrent plans of a daemon or a sweep — holds a token while it
// runs, so the process never solves more ILPs at once than it has CPUs.
// A token is held only by a running unit, never by a goroutine waiting
// for child subtrees or for other units, so units cannot deadlock on
// tokens. Scheduling decides only when a unit runs: its results are
// merged in unit order, so no output depends on the width.
var regionPool = newTokenPool()

// poolToken is the right to run one unit. It carries the ILP workspace
// its units solve on, so the simplex and LU buffers are reused across
// solves instead of reallocated per solve.
type poolToken struct {
	// id numbers the token among those alive; the unit holding it traces
	// to Chrome worker track id.
	id int
	ws ilp.Workspace
}

// tokenPool hands out tokens up to the current pool width.
type tokenPool struct {
	mu   sync.Mutex
	cond sync.Cond
	busy int
	free []*poolToken
	made int
}

func newTokenPool() *tokenPool {
	tp := &tokenPool{}
	tp.cond.L = &tp.mu
	return tp
}

// poolWidth is the number of units that may run at once.
func poolWidth() int {
	return runtime.GOMAXPROCS(0) //repolint:allow numcpu (pool width only; results merge in unit order)
}

// acquire blocks until fewer than poolWidth tokens are held and returns
// the idle token with the smallest id (a new one when none is idle).
func (tp *tokenPool) acquire() *poolToken {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	for tp.busy >= poolWidth() {
		tp.cond.Wait()
	}
	tp.busy++
	if len(tp.free) == 0 {
		tp.made++
		return &poolToken{id: tp.made - 1}
	}
	best := 0
	for i, t := range tp.free {
		if t.id < tp.free[best].id {
			best = i
		}
	}
	t := tp.free[best]
	tp.free[best] = tp.free[len(tp.free)-1]
	tp.free = tp.free[:len(tp.free)-1]
	return t
}

// release returns a token and wakes one waiting unit.
func (tp *tokenPool) release(t *poolToken) {
	tp.mu.Lock()
	tp.busy--
	tp.free = append(tp.free, t)
	tp.mu.Unlock()
	tp.cond.Signal()
}

// regionUnit is one independently solvable work packet of a node's
// parallel-set construction: the full downward task-bound sweep of one
// (region, main-class) pair. Units run concurrently on the region pool
// and are merged in unit order, which reproduces the sequential solve
// and record order exactly.
type regionUnit struct {
	seqPC int
	run   func(sub *Parallelizer) []*Solution
	sols  []*Solution
	recs  []SolveRecord
}

// execute runs the unit under tok on a private sub-parallelizer that
// solves on the token's workspace, traces to the token's worker track
// and captures its solutions and records for the ordered merge.
func (u *regionUnit) execute(parent *Parallelizer, tok *poolToken) {
	sub := parent.scratchWithStore()
	sub.cfg.Tracer = parent.cfg.Tracer.Worker(tok.id)
	sub.ws = &tok.ws
	u.sols = u.run(sub)
	u.recs = sub.stats.Solves
}

// runUnits runs every unit on the region pool and returns once all of
// them are done. The caller merges their results in unit order, so
// scheduling cannot influence any output.
func (p *Parallelizer) runUnits(units []*regionUnit) {
	m := p.cfg.Metrics
	m.Counter("core.region_pool.units").Add(int64(len(units)))
	// Pool occupancy gauges: queue depth counts this plan's units waiting
	// for a token, busy those holding one. Telemetry only.
	queueDepth := m.Gauge("core.region_pool.queue_depth")
	busy := m.Gauge("core.region_pool.busy")
	m.Gauge("core.region_pool.workers").Set(float64(poolWidth()))
	queueDepth.Add(float64(len(units)))
	fanOut(len(units), func(i int) {
		tok := regionPool.acquire()
		defer regionPool.release(tok)
		queueDepth.Add(-1)
		busy.Add(1)
		defer busy.Add(-1)
		units[i].execute(p, tok)
	})
}

// spawned counts the goroutines fanOut runs, process-wide. An HTG is
// as large as its program, so fanOut starts a goroutine only while fewer
// than spawnPerToken per pool token run, and calls inline otherwise.
var spawned atomic.Int64

const spawnPerToken = 8

// trySpawn takes a spawn slot if one is free.
func trySpawn() bool {
	if spawned.Add(1) <= int64(spawnPerToken*poolWidth()) {
		return true
	}
	spawned.Add(-1)
	return false
}

// fanOut runs f(0), ..., f(n-1) and waits for all of them: the last on
// the calling goroutine, the others each on a goroutine of its own
// while spawn slots are free. A panic in any call is raised again in
// the caller once all calls are done (the lowest index first), so a
// recover further up — the daemon's per-job one — still sees it.
func fanOut(n int, f func(i int)) {
	panics := make([]any, n)
	call := func(i int) {
		defer func() { panics[i] = recover() }()
		f(i)
	}
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		if !trySpawn() {
			call(i)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer spawned.Add(-1)
			call(i)
		}()
	}
	if n > 0 {
		call(n - 1)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// mergeUnits folds unit results into the node's solution set and
// returns their solve records, both in unit order.
func mergeUnits(set *SolutionSet, units []*regionUnit) []SolveRecord {
	var recs []SolveRecord
	for _, u := range units {
		set.ByClass[u.seqPC] = append(set.ByClass[u.seqPC], u.sols...)
		recs = append(recs, u.recs...)
	}
	return recs
}
