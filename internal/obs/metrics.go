package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe on a nil receiver and from concurrent goroutines.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (occupancy-style up/down counting).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Max raises the gauge to v when v exceeds the stored value.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets are the latency histogram upper bounds: a 1-2-5
// logarithmic series from 1µs to 10s (plus the implicit +Inf overflow
// bucket), fine enough that interpolated quantiles stay within a small
// factor of the true order statistic at every scale the pipeline spans
// (microsecond cache hits to multi-second cold ILP solves).
var histBuckets = [...]time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second,
	10 * time.Second,
	// implicit +Inf bucket
}

// NumHistogramBuckets is the bucket count including the +Inf overflow.
const NumHistogramBuckets = len(histBuckets) + 1

// HistogramBounds returns the bucket upper bounds (excluding +Inf).
func HistogramBounds() []time.Duration {
	out := make([]time.Duration, len(histBuckets))
	copy(out, histBuckets[:])
	return out
}

// Histogram is a log-bucketed (1-2-5 series, 1µs..10s plus overflow)
// duration histogram tracking count, sum, min, max and interpolated
// quantiles. The zero value is ready to use; all methods are safe on a
// nil receiver and from concurrent goroutines, including Snapshot while
// writers are active.
type Histogram struct {
	buckets [NumHistogramBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
	// minNs1 stores min+1 so the zero value means "no observation yet";
	// it is written before count so a reader that sees count > 0 always
	// sees an initialized minimum.
	minNs1 atomic.Int64
	maxNs  atomic.Int64
}

// bucketIndex returns the bucket an observation of d falls into.
func bucketIndex(d time.Duration) int {
	i := 0
	for ; i < len(histBuckets); i++ {
		if d <= histBuckets[i] {
			break
		}
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	for {
		old := h.minNs1.Load()
		if old != 0 && old <= ns+1 {
			break
		}
		if h.minNs1.CompareAndSwap(old, ns+1) {
			break
		}
	}
	for {
		old := h.maxNs.Load()
		if old >= ns {
			break
		}
		if h.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNs.Load())
}

// Mean returns the average observed duration.
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Min returns the smallest observed duration (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h == nil {
		return 0
	}
	if h.count.Load() == 0 {
		return 0
	}
	if v := h.minNs1.Load(); v > 0 {
		return time.Duration(v - 1)
	}
	return 0
}

// Max returns the largest observed duration (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.maxNs.Load())
}

// Quantile returns the interpolated q-quantile (q in [0,1]) of the
// observations, estimated from the log-bucket counts: within the
// bucket holding the rank it interpolates linearly between the bucket
// bounds, clamped to the observed min/max. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// HistogramSnapshot is a point-in-time copy of a histogram, safe to
// take while writers are active (bucket counts, count and sum are read
// independently, so a snapshot racing an Observe may be off by that
// single in-flight observation — never torn beyond it).
type HistogramSnapshot struct {
	// Count, Sum, Min, Max mirror the accessor values at snapshot time.
	Count         int64
	Sum, Min, Max time.Duration
	// Buckets holds per-bucket (non-cumulative) observation counts; the
	// last entry is the +Inf overflow bucket.
	Buckets [NumHistogramBuckets]int64
	// P50, P90 and P99 are the precomputed latency percentiles.
	P50, P90, P99 time.Duration
}

// Snapshot copies the histogram state and computes P50/P90/P99. Safe
// to call concurrently with Observe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	// Read count first: the per-bucket loads happen after, so their sum
	// is >= s.Count and quantile ranks (computed from s.Count) always
	// resolve to a bucket.
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sumNs.Load())
	if v := h.minNs1.Load(); v > 0 && s.Count > 0 {
		s.Min = time.Duration(v - 1)
	}
	if s.Count > 0 {
		s.Max = time.Duration(h.maxNs.Load())
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile interpolates the q-quantile from the snapshot's buckets.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum < rank {
			continue
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = histBuckets[i-1]
		}
		hi := s.Max
		if i < len(histBuckets) && histBuckets[i] < hi {
			hi = histBuckets[i]
		}
		if lo < s.Min {
			lo = s.Min
		}
		if hi < lo {
			hi = lo
		}
		// Position of the rank within this bucket, interpolated linearly.
		pos := float64(rank-(cum-n)) / float64(n)
		v := lo + time.Duration(pos*float64(hi-lo))
		if v > s.Max {
			v = s.Max
		}
		return v
	}
	return s.Max
}

// Registry is a concurrency-safe collection of named metrics and
// labeled metric families. A nil *Registry hands out nil metrics whose
// methods all no-op, so instrumented code needs no enabled/disabled
// branches.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry creates an enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		hists:       map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		histVecs:    map[string]*HistogramVec{},
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// histLine renders the human-readable summary of one histogram.
func histLine(h *Histogram) string {
	s := h.Snapshot()
	if s.Count == 0 {
		return "(empty)"
	}
	return fmt.Sprintf("count=%d sum=%s mean=%s min=%s max=%s p50=%s p90=%s p99=%s",
		s.Count,
		s.Sum.Round(time.Microsecond),
		time.Duration(int64(s.Sum)/s.Count).Round(time.Microsecond),
		s.Min.Round(time.Microsecond),
		s.Max.Round(time.Microsecond),
		s.P50.Round(time.Microsecond),
		s.P90.Round(time.Microsecond),
		s.P99.Round(time.Microsecond))
}

// RenderTable prints every metric — plain and labeled — as an aligned
// human-readable table, sorted by name (then label values) within each
// metric family.
func (r *Registry) RenderTable() string {
	if r == nil {
		return ""
	}
	type row struct{ name, val string }
	var counterRows, gaugeRows, histRows []row

	r.mu.Lock()
	for _, n := range sortedKeys(r.counters) {
		counterRows = append(counterRows, row{n, fmt.Sprintf("%14d", r.counters[n].Value())})
	}
	for _, n := range sortedKeys(r.counterVecs) {
		for _, ch := range r.counterVecs[n].children() {
			counterRows = append(counterRows, row{ch.display, fmt.Sprintf("%14d", ch.metric.Value())})
		}
	}
	for _, n := range sortedKeys(r.gauges) {
		gaugeRows = append(gaugeRows, row{n, fmt.Sprintf("%14.4g", r.gauges[n].Value())})
	}
	for _, n := range sortedKeys(r.hists) {
		histRows = append(histRows, row{n, histLine(r.hists[n])})
	}
	for _, n := range sortedKeys(r.histVecs) {
		for _, ch := range r.histVecs[n].children() {
			histRows = append(histRows, row{ch.display, histLine(ch.metric)})
		}
	}
	r.mu.Unlock()

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %14s\n", "metric", "value")
	sb.WriteString(strings.Repeat("-", 47) + "\n")
	for _, rows := range [][]row{counterRows, gaugeRows, histRows} {
		for _, rw := range rows {
			fmt.Fprintf(&sb, "%-32s %s\n", rw.name, strings.TrimRight(rw.val, " "))
		}
	}
	return sb.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
