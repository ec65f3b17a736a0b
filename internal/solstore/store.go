// Package solstore is a shared, sharded, size-bounded solution store
// with single-flight deduplication: the cache architecture the repo's
// scale story hangs on (the 200×3 DSE sweep is 38m23s cold vs 17ms
// warm — caching, not raw solving, is what makes repeated evaluation
// cheap).
//
// The store maps canonical fingerprints (region-solve keys, whole-sweep
// outcome keys) to arbitrary immutable values. It is safe for heavy
// concurrent use:
//
//   - keys are distributed over 2^k shards by FNV-1a hash, so unrelated
//     solves never contend on one lock;
//   - each shard is an LRU over its own entries with a per-shard
//     capacity, so the store is size-bounded and eviction in one shard
//     never touches another;
//   - GetOrCompute collapses concurrent computations of the same key
//     into one ("single flight"): the first caller computes, everyone
//     else blocks on that computation and shares its value. This is
//     what keeps a parallel region sweep from solving the same ILP
//     twice just because two workers reached identical subproblems at
//     the same moment.
//
// Besides solutions the store owns one small front-end stage (see
// FrontEnd): a program's checked AST and HTG keyed by its source, so
// every plan of one program compiles, profiles and builds its HTG once.
//
// Hit/miss/dedup/eviction counters and per-shard entry gauges flow into
// an optional obs.Registry under solstore.* (the front-end stage's under
// solstore.frontend.*), so the CLIs' -stats views and the DSE reports
// can show store effectiveness.
package solstore

import (
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Capacity bounds the total number of entries across all shards
	// (rounded up to a multiple of the shard count). Non-positive
	// selects DefaultCapacity.
	Capacity int
	// Shards is the number of independent LRU shards; rounded up to a
	// power of two. Non-positive selects DefaultShards.
	Shards int
	// Metrics, when non-nil, receives solstore.* counters and per-shard
	// entry gauges.
	Metrics *obs.Registry
	// Events, when non-nil, receives structured store events: one
	// "store-eviction" per LRU eviction (with the evicted key) and one
	// "worker-stall" per GetOrCompute call that blocked on another
	// caller's in-flight computation.
	Events *obs.EventLog
}

// Defaults for Options.
const (
	DefaultCapacity = 4096
	DefaultShards   = 8
)

// frontEndEntries bounds the front-end stage: a few programs' ASTs and
// HTGs, enough for a sweep over one program's scenarios and platforms or
// a daemon's recent sources.
const frontEndEntries = 8

// Store is the sharded LRU + single-flight store. The zero value is not
// usable; construct with New. All methods are safe for concurrent use
// and safe on a nil *Store (Get misses, Put drops, GetOrCompute and
// FrontEnd compute every time), so call sites need no enabled/disabled
// branch.
type Store struct {
	shards []*shard
	mask   uint32

	hits      *obs.Counter
	misses    *obs.Counter
	dedups    *obs.Counter
	evictions *obs.Counter
	events    *obs.EventLog

	// front is the front-end stage: its own one-shard LRU and counters,
	// so its traffic never counts as, or evicts, a solution.
	front *Store
}

// entry is one cached value on a shard's LRU list.
type entry struct {
	key        string
	val        any
	prev, next *entry // most-recently-used list; head = hottest
}

// call is one in-flight computation other callers can wait on.
type call struct {
	done chan struct{}
	val  any
}

// shard is one LRU with its own lock and in-flight table.
type shard struct {
	mu       sync.Mutex
	cap      int
	items    map[string]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	inflight map[string]*call

	evictions int64
	// trackEvicted records evicted keys for event emission; off when the
	// store has no event sink so eviction stays allocation-free.
	trackEvicted bool
	evictedKeys  []string
	entries      *obs.Gauge
}

// New creates a store. A nil metrics registry disables telemetry.
func New(opts Options) *Store {
	capTotal := opts.Capacity
	if capTotal <= 0 {
		capTotal = DefaultCapacity
	}
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	s := newStore("solstore.", shardGaugeName, capTotal, n, opts)
	s.front = newStore("solstore.frontend.", func(int) string { return "solstore.frontend.entries" },
		frontEndEntries, 1, opts)
	return s
}

// newStore builds one LRU of capTotal entries over n shards (rounded up
// to a power of two) whose counters are named prefix+name and whose
// per-shard entry gauges gauge(i).
func newStore(prefix string, gauge func(int) string, capTotal, n int, opts Options) *Store {
	// Round the shard count up to a power of two for mask indexing.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	n = pow
	perShard := (capTotal + n - 1) / n
	// Without a registry, back the counters with standalone instances so
	// Stats() still reads live values (Registry.Counter on nil returns a
	// nil no-op counter, which would freeze Stats at zero).
	counter := func(name string) *obs.Counter {
		if c := opts.Metrics.Counter(prefix + name); c != nil {
			return c
		}
		return &obs.Counter{}
	}
	s := &Store{
		shards:    make([]*shard, n),
		mask:      uint32(n - 1),
		hits:      counter("hits"),
		misses:    counter("misses"),
		dedups:    counter("dedups"),
		evictions: counter("evictions"),
		events:    opts.Events,
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			cap:          perShard,
			items:        map[string]*entry{},
			inflight:     map[string]*call{},
			trackEvicted: opts.Events != nil,
			entries:      opts.Metrics.Gauge(gauge(i)),
		}
	}
	return s
}

// shardGaugeName names the per-shard entry gauge.
func shardGaugeName(i int) string {
	return "solstore.shard." + twoDigits(i) + ".entries"
}

// twoDigits formats small shard indices without fmt (hot path free of
// allocations; shard counts are tiny).
func twoDigits(i int) string {
	if i < 10 {
		return string([]byte{'0', byte('0' + i)})
	}
	if i < 100 {
		return string([]byte{byte('0' + i/10), byte('0' + i%10)})
	}
	return string([]byte{byte('0' + i/100), byte('0' + (i/10)%10), byte('0' + i%10)})
}

// shardFor picks the shard of a key.
func (s *Store) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()&s.mask]
}

// Get returns the cached value for key, marking it most recently used.
func (s *Store) Get(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.items[key]
	var val any
	if ok {
		sh.moveToFront(e)
		val = e.val // read under the lock: put may update e.val in place
	}
	sh.mu.Unlock()
	if ok {
		s.hits.Inc()
		return val, true
	}
	s.misses.Inc()
	return nil, false
}

// Put stores val under key (refreshing recency when the key exists),
// evicting least-recently-used entries past the shard capacity.
func (s *Store) Put(key string, val any) {
	if s == nil {
		return
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.put(key, val)
	sh.mu.Unlock()
	s.noteEvictions(sh)
}

// GetOrCompute returns the value for key, computing it with fn on a
// miss. Concurrent callers with the same key wait for the first
// caller's fn instead of recomputing ("single flight") and share its
// value. The value is stored only when fn reports keep, so a result
// that must not be replayed (an error, a solve cut by the wall clock)
// reaches the callers in flight and no one after them. fn runs without
// any store lock held, so it may itself use the store (under a
// different key). The second return reports whether the value came
// from cache or an in-flight computation rather than this caller's own
// fn.
func (s *Store) GetOrCompute(key string, fn func() (val any, keep bool)) (any, bool) {
	if s == nil {
		v, _ := fn()
		return v, false
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.items[key]; ok {
		sh.moveToFront(e)
		val := e.val // read under the lock: put may update e.val in place
		sh.mu.Unlock()
		s.hits.Inc()
		return val, true
	}
	if c, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		s.dedups.Inc()
		var start time.Time
		if s.events != nil {
			start = time.Now() //repolint:allow timenow (telemetry only, never solver-visible)
		}
		<-c.done
		if s.events != nil {
			s.events.Emit("worker-stall", key, map[string]any{
				"wait_ms": float64(time.Since(start).Nanoseconds()) / 1e6, //repolint:allow timenow
			})
		}
		return c.val, true
	}
	c := &call{done: make(chan struct{})}
	sh.inflight[key] = c
	sh.mu.Unlock()
	s.misses.Inc()

	val, keep := fn()
	c.val = val
	sh.mu.Lock()
	if keep {
		sh.put(key, val)
	}
	delete(sh.inflight, key)
	sh.mu.Unlock()
	close(c.done)
	s.noteEvictions(sh)
	return val, false
}

// FrontEnd is GetOrCompute on the store's front-end stage: an LRU of a
// few per-program analysis results (checked AST and HTG) apart from the
// solutions. Its lookups count under
// Stats.FrontEnd, never as solution hits or misses, and its entries
// never evict a solution. The values are shared between callers and
// must be treated as read-only.
func (s *Store) FrontEnd(key string, fn func() (val any, keep bool)) (any, bool) {
	if s == nil {
		v, _ := fn()
		return v, false
	}
	return s.front.GetOrCompute(key, fn)
}

// noteEvictions forwards a shard's eviction delta to the global counter
// and emits one "store-eviction" event per evicted key. Events are
// emitted after the shard lock is released so a slow event sink never
// blocks other store traffic.
func (s *Store) noteEvictions(sh *shard) {
	sh.mu.Lock()
	n := sh.evictions
	sh.evictions = 0
	keys := sh.evictedKeys
	sh.evictedKeys = nil
	sh.mu.Unlock()
	if n > 0 {
		s.evictions.Add(n)
	}
	for _, k := range keys {
		s.events.Emit("store-eviction", k, nil)
	}
}

// put inserts or refreshes an entry; caller holds sh.mu.
func (sh *shard) put(key string, val any) {
	if e, ok := sh.items[key]; ok {
		e.val = val
		sh.moveToFront(e)
		return
	}
	e := &entry{key: key, val: val}
	sh.items[key] = e
	sh.pushFront(e)
	for len(sh.items) > sh.cap {
		lru := sh.tail
		sh.unlink(lru)
		delete(sh.items, lru.key)
		sh.evictions++
		if sh.trackEvicted {
			sh.evictedKeys = append(sh.evictedKeys, lru.key)
		}
	}
	sh.entries.Set(float64(len(sh.items)))
}

// pushFront links e as the most recently used entry; caller holds sh.mu.
func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes e from the recency list; caller holds sh.mu.
func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront refreshes e's recency; caller holds sh.mu.
func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// Len returns the total number of cached entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the store's effectiveness.
type Stats struct {
	// Hits and Misses count solution lookups only (Get/GetOrCompute:
	// region|, dse| and serve| keys); Dedups the GetOrCompute calls that
	// joined another caller's in-flight computation instead of running
	// their own. Front-end lookups count under FrontEnd.
	Hits, Misses, Dedups int64
	// Evictions counts LRU evictions; Entries the live entries.
	Evictions int64
	Entries   int
	// Shards is the shard count; ShardEntries the per-shard live entry
	// counts in shard order.
	Shards       int
	ShardEntries []int
	// FrontEnd is the front-end stage's traffic (see Store.FrontEnd).
	FrontEnd StageStats
}

// StageStats counts one side stage of the store.
type StageStats struct {
	Hits, Misses, Dedups, Evictions int64
	Entries                         int
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      s.hits.Value(),
		Misses:    s.misses.Value(),
		Dedups:    s.dedups.Value(),
		Evictions: s.evictions.Value(),
		Shards:    len(s.shards),
		FrontEnd: StageStats{
			Hits:      s.front.hits.Value(),
			Misses:    s.front.misses.Value(),
			Dedups:    s.front.dedups.Value(),
			Evictions: s.front.evictions.Value(),
			Entries:   s.front.Len(),
		},
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		n := len(sh.items)
		sh.mu.Unlock()
		st.Entries += n
		st.ShardEntries = append(st.ShardEntries, n)
	}
	return st
}

// HitRate returns Hits/(Hits+Misses), 0 when empty.
func (st Stats) HitRate() float64 {
	n := st.Hits + st.Misses
	if n == 0 {
		return 0
	}
	return float64(st.Hits) / float64(n)
}
