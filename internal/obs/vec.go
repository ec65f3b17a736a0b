package obs

import (
	"sort"
	"strings"
	"sync"
)

// Labeled metric families: a CounterVec / HistogramVec is one named
// family whose children are addressed by a small set of label values.
// Label names are canonicalized to sorted order at family creation (the
// "sorted-label-set key"), so two call sites declaring the same labels
// in different orders address the same children. Like every obs type,
// all methods are safe on a nil receiver and from concurrent goroutines.

// family is the child table shared by every labeled metric kind; M is
// the child metric type, whose zero value must be ready to use.
type family[M any] struct {
	name string
	// names are the label names in sorted order; perm maps a declared
	// argument position to its slot in the sorted order.
	names []string
	perm  []int

	mu       sync.RWMutex
	childMap map[string]*M
	vals     map[string][]string // child key -> sorted label values
}

// CounterVec is a labeled counter family.
type CounterVec = family[Counter]

// HistogramVec is a labeled histogram family.
type HistogramVec = family[Histogram]

// newFamily canonicalizes the declared label names.
func newFamily[M any](name string, labelNames []string) *family[M] {
	type slot struct {
		name string
		pos  int
	}
	slots := make([]slot, len(labelNames))
	for i, n := range labelNames {
		slots[i] = slot{n, i}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].name < slots[j].name })
	f := &family[M]{
		name:     name,
		names:    make([]string, len(slots)),
		perm:     make([]int, len(slots)),
		childMap: map[string]*M{},
		vals:     map[string][]string{},
	}
	for sortedPos, s := range slots {
		f.names[sortedPos] = s.name
		f.perm[s.pos] = sortedPos
	}
	return f
}

// childKeySep separates label values inside a child key; it cannot
// appear in well-formed metric label values.
const childKeySep = "\x1f"

// childKey reorders the declared-order values into sorted-label order
// and joins them. Missing values read as ""; extras are dropped, so a
// mismatched call never panics (telemetry must not take the pipeline
// down).
func (f *family[M]) childKey(values []string) (string, []string) {
	sorted := make([]string, len(f.names))
	for i, v := range values {
		if i >= len(f.perm) {
			break
		}
		sorted[f.perm[i]] = v
	}
	return strings.Join(sorted, childKeySep), sorted
}

// With returns (creating on first use) the child metric for the label
// values, given in the family's declared label order.
func (f *family[M]) With(values ...string) *M {
	if f == nil {
		return nil
	}
	key, sorted := f.childKey(values)
	f.mu.RLock()
	m := f.childMap[key]
	f.mu.RUnlock()
	if m != nil {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m = f.childMap[key]; m == nil {
		m = new(M)
		f.childMap[key] = m
		f.vals[key] = sorted
	}
	return m
}

// LabelNames returns the canonical (sorted) label names.
func (f *family[M]) LabelNames() []string {
	if f == nil {
		return nil
	}
	out := make([]string, len(f.names))
	copy(out, f.names)
	return out
}

// displayName renders "name{a="x",b="y"}" for tables.
func (f *family[M]) displayName(sortedVals []string) string {
	var sb strings.Builder
	sb.WriteString(f.name)
	sb.WriteByte('{')
	for i, n := range f.names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(sortedVals[i])
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

type child[M any] struct {
	display string
	values  []string
	metric  *M
}

// children snapshots the family in deterministic label order.
func (f *family[M]) children() []child[M] {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]child[M], 0, len(f.childMap))
	for _, k := range sortedKeys(f.childMap) {
		out = append(out, child[M]{f.displayName(f.vals[k]), f.vals[k], f.childMap[k]})
	}
	return out
}

// CounterVec returns (creating on first use) the named labeled counter
// family. The label names are canonicalized to sorted order; a family
// keeps the label set of its first creation.
func (r *Registry) CounterVec(name string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counterVecs[name]
	if !ok {
		v = newFamily[Counter](name, labelNames)
		r.counterVecs[name] = v
	}
	return v
}

// HistogramVec returns (creating on first use) the named labeled
// histogram family.
func (r *Registry) HistogramVec(name string, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.histVecs[name]
	if !ok {
		v = newFamily[Histogram](name, labelNames)
		r.histVecs[name] = v
	}
	return v
}
