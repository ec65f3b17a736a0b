package solstore

import (
	"fmt"
	"testing"
)

// benchKeys builds n distinct region-style keys once per bench.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("region|%032x", i)
	}
	return keys
}

// BenchmarkStoreGetHit measures the warm lookup path: every Get is
// served from the store.
func BenchmarkStoreGetHit(b *testing.B) {
	s := New(Options{Capacity: 1 << 12})
	keys := benchKeys(1 << 10)
	for i, k := range keys {
		s.Put(k, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i&(len(keys)-1)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
	b.ReportMetric(100*s.Stats().HitRate(), "hit-%")
}

// BenchmarkStorePutEvict measures the insert path under steady-state
// LRU pressure: the working set is 4x the capacity, so most Puts evict.
func BenchmarkStorePutEvict(b *testing.B) {
	s := New(Options{Capacity: 1 << 10})
	keys := benchKeys(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i&(len(keys)-1)], i)
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(s.Stats().Evictions)/float64(b.N), "evictions/op")
	}
}

// BenchmarkStoreGetOrCompute measures the singleflight path with a
// churning key set: half the lookups compute, half are served.
func BenchmarkStoreGetOrCompute(b *testing.B) {
	s := New(Options{Capacity: 1 << 12})
	keys := benchKeys(1 << 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		s.GetOrCompute(k, func() (any, bool) { return i, true })
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(100*st.HitRate(), "hit-%")
	b.ReportMetric(float64(st.Dedups), "dedups")
}

// BenchmarkStoreParallelMixed measures the sharded store under
// concurrent mixed traffic (the region-scheduler access pattern):
// every goroutine interleaves hits, misses and inserts.
func BenchmarkStoreParallelMixed(b *testing.B) {
	s := New(Options{Capacity: 1 << 12, Shards: 8})
	keys := benchKeys(1 << 11)
	for i := 0; i < len(keys); i += 2 {
		s.Put(keys[i], i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i&(len(keys)-1)]
			if i%3 == 0 {
				s.Put(k, i)
			} else {
				s.Get(k)
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(100*s.Stats().HitRate(), "hit-%")
}
