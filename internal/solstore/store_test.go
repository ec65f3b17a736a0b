package solstore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestPutGetRoundTrip checks the basic contract: what goes in comes out,
// misses report false, and metrics count both.
func TestPutGetRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Capacity: 32, Shards: 4, Metrics: reg})
	s.Put("a", 1)
	s.Put("b", "two")
	if v, ok := s.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	if v, ok := s.Get("b"); !ok || v.(string) != "two" {
		t.Fatalf("Get(b) = %v, %v; want two, true", v, ok)
	}
	if _, ok := s.Get("c"); ok {
		t.Fatalf("Get(c) hit; want miss")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v; want 2 hits, 1 miss, 2 entries", st)
	}
	if reg.Counter("solstore.hits").Value() != 2 {
		t.Fatalf("registry hits = %d; want 2", reg.Counter("solstore.hits").Value())
	}
}

// TestNilStoreSafe checks that every method is a safe no-op on a nil
// store, so call sites can thread an optional store without branching.
func TestNilStoreSafe(t *testing.T) {
	var s *Store
	s.Put("k", 1)
	if _, ok := s.Get("k"); ok {
		t.Fatalf("nil store Get hit")
	}
	v, hit := s.GetOrCompute("k", func() (any, bool) { return 7, true })
	if hit || v.(int) != 7 {
		t.Fatalf("nil store GetOrCompute = %v, %v; want 7, false", v, hit)
	}
	v, hit = s.FrontEnd("k", func() (any, bool) { return 5, true })
	if hit || v.(int) != 5 {
		t.Fatalf("nil store FrontEnd = %v, %v; want 5, false", v, hit)
	}
	if s.Len() != 0 || s.Stats().Entries != 0 {
		t.Fatalf("nil store not empty")
	}
}

// TestConcurrentGetPut hammers the store from many goroutines over a
// shared key set. Run under -race this is the data-race gate for the
// shard locking.
func TestConcurrentGetPut(t *testing.T) {
	s := New(Options{Capacity: 128, Shards: 8})
	const goroutines = 16
	const ops = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%03d", (g*7+i)%64)
				if i%3 == 0 {
					s.Put(key, g*ops+i)
				} else {
					if v, ok := s.Get(key); ok {
						if _, isInt := v.(int); !isInt {
							t.Errorf("Get(%s) returned %T; want int", key, v)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.Len(); n == 0 || n > 64 {
		t.Fatalf("Len() = %d; want 1..64", n)
	}
}

// TestSingleflightCollapse launches many concurrent GetOrCompute calls
// for the same key and checks exactly one computation ran, everyone got
// its value, and the joiners were counted as dedups.
func TestSingleflightCollapse(t *testing.T) {
	s := New(Options{Capacity: 16, Shards: 1})
	var computed atomic.Int64
	release := make(chan struct{})
	const callers = 12

	var wg sync.WaitGroup
	vals := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _ := s.GetOrCompute("hot", func() (any, bool) {
				computed.Add(1)
				<-release // hold the computation open so others must join
				return 42, true
			})
			vals[i] = v.(int)
		}(i)
	}
	// Wait until the first caller is inside fn (computed == 1), then
	// release; joiners registered before or after release both share it.
	for computed.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := computed.Load(); got != 1 {
		t.Fatalf("fn ran %d times; want 1", got)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d got %d; want 42", i, v)
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d; want 1 (the computing caller)", st.Misses)
	}
	if st.Dedups+st.Hits != callers-1 {
		t.Fatalf("dedups(%d)+hits(%d) = %d; want %d joiners",
			st.Dedups, st.Hits, st.Dedups+st.Hits, callers-1)
	}
	if st.Dedups == 0 {
		t.Fatalf("dedups = 0; want at least one in-flight join")
	}
}

// TestLRUEvictionDeterminism fills one shard past capacity in a fixed
// order and checks exactly the least-recently-used keys were evicted —
// twice, asserting identical survivor sets both times.
func TestLRUEvictionDeterminism(t *testing.T) {
	survivors := func() []string {
		s := New(Options{Capacity: 4, Shards: 1})
		for i := 0; i < 8; i++ {
			s.Put(fmt.Sprintf("k%d", i), i)
		}
		// Touch k4 so it outlives the younger k5 under further inserts.
		s.Get("k4")
		s.Put("k8", 8)
		s.Put("k9", 9)
		var alive []string
		for i := 0; i <= 9; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, ok := s.Get(k); ok {
				alive = append(alive, k)
			}
		}
		return alive
	}

	// After inserting k0..k7 at cap 4 the survivors are k4..k7; touching
	// k4 moves it ahead of k5/k6, so k8 evicts k5 and k9 evicts k6.
	want := []string{"k4", "k7", "k8", "k9"}

	first := survivors()
	second := survivors()
	if fmt.Sprint(first) != fmt.Sprint(want) {
		t.Fatalf("survivors = %v; want %v", first, want)
	}
	if fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("eviction nondeterministic: %v vs %v", second, first)
	}

	s := New(Options{Capacity: 4, Shards: 1, Metrics: obs.NewRegistry()})
	for i := 0; i < 8; i++ {
		s.Put(fmt.Sprintf("k%d", i), i)
	}
	if st := s.Stats(); st.Evictions != 4 || st.Entries != 4 {
		t.Fatalf("stats = %+v; want 4 evictions, 4 entries", st)
	}
}

// TestDistinctKeysDistinctValues is the fingerprint-collision sanity
// check: near-identical keys (one byte apart, same length — the shape a
// weak fingerprint would collide on) must resolve to their own values.
func TestDistinctKeysDistinctValues(t *testing.T) {
	s := New(Options{Capacity: 4096, Shards: 8})
	const n = 512
	for i := 0; i < n; i++ {
		s.Put(fmt.Sprintf("region|fp%04d|cfg", i), i)
	}
	for i := 0; i < n; i++ {
		v, ok := s.Get(fmt.Sprintf("region|fp%04d|cfg", i))
		if !ok || v.(int) != i {
			t.Fatalf("key %d resolved to %v, %v; want %d, true", i, v, ok, i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len() = %d; want %d", s.Len(), n)
	}
}

// TestGetOrComputeConcurrentDistinctKeys checks the singleflight table
// does not serialize different keys: distinct keys compute exactly once
// each under concurrency.
func TestGetOrComputeConcurrentDistinctKeys(t *testing.T) {
	s := New(Options{Capacity: 256, Shards: 4})
	var computed atomic.Int64
	var wg sync.WaitGroup
	const keys = 32
	const callersPerKey = 4
	for k := 0; k < keys; k++ {
		for c := 0; c < callersPerKey; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, _ := s.GetOrCompute(fmt.Sprintf("key%02d", k), func() (any, bool) {
					computed.Add(1)
					return k * 10, true
				})
				if v.(int) != k*10 {
					t.Errorf("key %d got %v", k, v)
				}
			}(k)
		}
	}
	wg.Wait()
	if got := computed.Load(); got != keys {
		t.Fatalf("computed %d times; want %d (once per key)", got, keys)
	}
}

// TestSingleflightRacesEviction is the server-shaped load test: many
// goroutines GetOrCompute the *same* hot key while a writer floods the
// single shard with unique Puts, so the hot entry is repeatedly evicted
// — including while computations of it are in flight. The singleflight
// table must stay consistent with the LRU under that interleaving:
// every caller gets the correct value (never another key's), no call
// deadlocks, and an in-flight computation whose freshly-stored entry is
// evicted simply recomputes on the next miss. Run under -race (make
// race) this is the concurrency gate for the inflight/LRU interaction.
func TestSingleflightRacesEviction(t *testing.T) {
	// One shard with a tiny capacity so the flood below evicts the hot
	// key almost immediately after every insert.
	s := New(Options{Capacity: 4, Shards: 1})
	const (
		readers = 8
		rounds  = 300
	)
	var computed atomic.Int64
	stop := make(chan struct{})

	// Eviction pressure: unique keys through the same shard.
	var flood sync.WaitGroup
	flood.Add(1)
	go func() {
		defer flood.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Put(fmt.Sprintf("cold%06d", i), i)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, _ := s.GetOrCompute("hot", func() (any, bool) {
					computed.Add(1)
					runtime.Gosched() // widen the in-flight window
					return "hotval", true
				})
				if v.(string) != "hotval" {
					t.Errorf("GetOrCompute(hot) = %v; want hotval", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flood.Wait()

	// Eviction must have actually raced the singleflight: the hot key
	// was computed more than once (evicted between rounds) but far
	// fewer times than the raw call count (singleflight + cache hits).
	if got := computed.Load(); got == 0 || got >= readers*rounds {
		t.Fatalf("hot key computed %d times; want in (0, %d)", got, readers*rounds)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions; the flood failed to pressure the shard")
	}
	if st.Hits+st.Dedups+st.Misses < readers*rounds {
		t.Fatalf("accounting lost calls: hits %d + dedups %d + misses %d < %d",
			st.Hits, st.Dedups, st.Misses, readers*rounds)
	}
}

// TestShardGaugeNames pins the zero-padded gauge naming used by -stats.
func TestShardGaugeNames(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Capacity: 8, Shards: 2, Metrics: reg})
	s.Put("x", 1)
	found := false
	for i := 0; i < 2; i++ {
		if reg.Gauge(shardGaugeName(i)).Value() == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shard gauge recorded the entry")
	}
	if shardGaugeName(0) != "solstore.shard.00.entries" {
		t.Fatalf("gauge name = %q", shardGaugeName(0))
	}
}

// TestGetOrComputeDeclined checks the decline path: a value fn does not
// keep reaches its caller but is not stored, so the next lookup runs fn
// again.
func TestGetOrComputeDeclined(t *testing.T) {
	s := New(Options{Capacity: 8, Shards: 1})
	calls := 0
	fn := func() (any, bool) { calls++; return calls, false }
	for want := 1; want <= 2; want++ {
		v, shared := s.GetOrCompute("k", fn)
		if shared || v.(int) != want {
			t.Fatalf("call %d: GetOrCompute = %v, %v; want %d, false", want, v, shared, want)
		}
	}
	if st := s.Stats(); st.Entries != 0 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v; want 2 misses and nothing stored", st)
	}
}

// TestDeclinedValueReachesWaiters checks that callers joined to an
// in-flight computation share its value even when it is not kept.
func TestDeclinedValueReachesWaiters(t *testing.T) {
	s := New(Options{Capacity: 8, Shards: 1})
	var computed atomic.Int64
	release := make(chan struct{})
	const callers = 6
	var wg sync.WaitGroup
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _ = s.GetOrCompute("err", func() (any, bool) {
				computed.Add(1)
				<-release
				return "failed", false
			})
		}(i)
	}
	for computed.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, v := range vals {
		if v != "failed" {
			t.Fatalf("caller %d got %v; want the declined value", i, v)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("declined value stored (%d entries)", s.Len())
	}
	if st := s.Stats(); st.Misses != computed.Load() || st.Misses+st.Dedups+st.Hits != callers {
		t.Fatalf("stats = %+v after %d computations; want one miss each, the rest joined", st, computed.Load())
	}
}

// TestFrontEndStageApart checks that the front-end stage is bounded at
// frontEndEntries, counts under its own counters and never touches the
// solution entries or their hit/miss counters.
func TestFrontEndStageApart(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Capacity: 4, Shards: 1, Metrics: reg})
	s.Put("region|a", 1)
	keep := func(v int) func() (any, bool) { return func() (any, bool) { return v, true } }
	for i := 0; i < frontEndEntries+3; i++ {
		s.FrontEnd(fmt.Sprintf("frontend|%02d", i), keep(i))
	}
	v, shared := s.FrontEnd(fmt.Sprintf("frontend|%02d", frontEndEntries+2), keep(-1))
	if !shared || v.(int) != frontEndEntries+2 {
		t.Fatalf("FrontEnd hit = %v, %v; want the stored value", v, shared)
	}
	s.FrontEnd("frontend|bad", func() (any, bool) { return "error", false })

	st := s.Stats()
	want := StageStats{Hits: 1, Misses: frontEndEntries + 4, Evictions: 3, Entries: frontEndEntries}
	if st.FrontEnd != want {
		t.Fatalf("front-end stats = %+v; want %+v", st.FrontEnd, want)
	}
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("solution stats = %+v; want untouched by the front-end stage", st)
	}
	if _, ok := s.Get("region|a"); !ok {
		t.Fatalf("front-end traffic evicted a solution")
	}
	if got := reg.Counter("solstore.frontend.misses").Value(); got != frontEndEntries+4 {
		t.Fatalf("solstore.frontend.misses = %d; want %d", got, frontEndEntries+4)
	}
	if got := reg.Gauge("solstore.frontend.entries").Value(); got != frontEndEntries {
		t.Fatalf("solstore.frontend.entries = %v; want %d", got, frontEndEntries)
	}

}
