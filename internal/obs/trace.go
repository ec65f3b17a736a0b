// Package obs is the tool flow's observability layer: phase-scoped
// tracing spans, a concurrency-safe metrics registry and exporters
// (Chrome trace_event JSON for chrome://tracing / Perfetto, plus
// human-readable tables). It is stdlib-only and designed around a nil
// fast path: every method is safe on a nil receiver and does nothing,
// so instrumented code never branches on "is observability on" and the
// disabled hot path costs a single pointer test.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation attached to a span.
type Attr struct {
	Key string
	Val any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{k, v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{k, v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{k, v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{k, v} }

// Dur builds a duration attribute in milliseconds. The key gets an "_ms"
// suffix so every exported duration names its unit.
func Dur(k string, v time.Duration) Attr {
	return Attr{k + "_ms", float64(v.Nanoseconds()) / 1e6}
}

// event is one recorded begin/end marker. Events are appended under the
// tracer lock at Start and End time, so the recorded order is exactly
// the (properly nested) execution order.
type event struct {
	ph    byte // 'B' or 'E'
	name  string
	ts    time.Duration // offset from the tracer epoch
	attrs []Attr
}

// slice is one synthesized occupancy interval on a named track, in a
// virtual (simulated) timebase independent of the span wall clock.
type slice struct {
	track, label   string
	startNs, endNs float64
}

// Tracer records phase spans and synthesized occupancy slices. Create
// one with NewTracer; a nil *Tracer is a valid, free, disabled tracer.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []event
	slices []slice
	logw   io.Writer
	elog   *EventLog
	open   int
}

// NewTracer creates an enabled tracer.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SetLogger makes the tracer additionally print one line per finished
// span to w (the CLI's -v mode). Safe on nil.
func (t *Tracer) SetLogger(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.logw = w
	t.mu.Unlock()
}

// SetEvents makes the tracer mirror span open/close markers into the
// structured event log ("span-open" / "span-close" kinds). Safe on nil.
func (t *Tracer) SetEvents(l *EventLog) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.elog = l
	t.mu.Unlock()
}

// Span is one open phase. A nil *Span (from a nil tracer) ignores all
// calls.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
	idx   int // index of the 'B' event, for attribute backfill
}

// Start opens a span. End it with (*Span).End; spans must nest
// (LIFO order) for the Chrome export to render a sensible flame view.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	idx := len(t.events)
	t.events = append(t.events, event{ph: 'B', name: name, ts: now.Sub(t.epoch), attrs: attrs})
	t.open++
	elog := t.elog
	t.mu.Unlock()
	elog.Emit("span-open", name, nil)
	return &Span{t: t, name: name, start: now, idx: idx}
}

// SetAttr attaches further attributes to the span (visible on its begin
// event); useful for results only known at the end of the phase.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	ev := &s.t.events[s.idx]
	ev.attrs = append(ev.attrs, attrs...)
	s.t.mu.Unlock()
}

// End closes the span and returns its duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.start)
	s.t.mu.Lock()
	s.t.events = append(s.t.events, event{ph: 'E', name: s.name, ts: now.Sub(s.t.epoch)})
	s.t.open--
	logw := s.t.logw
	elog := s.t.elog
	var attrs []Attr
	if logw != nil {
		attrs = append(attrs, s.t.events[s.idx].attrs...)
	}
	s.t.mu.Unlock()
	elog.Emit("span-close", s.name, map[string]any{"dur_ms": float64(d.Nanoseconds()) / 1e6})
	if logw != nil {
		line := fmt.Sprintf("[obs] %-14s %10s", s.name, d.Round(time.Microsecond))
		for _, a := range attrs {
			line += fmt.Sprintf(" %s=%v", a.Key, a.Val)
		}
		fmt.Fprintln(logw, line)
	}
	return d
}

// Slice records one occupancy interval on a named track of the
// simulated timeline (nanoseconds of virtual time). Safe on nil.
func (t *Tracer) Slice(track, label string, startNs, endNs float64) {
	if t == nil || endNs <= startNs {
		return
	}
	t.mu.Lock()
	t.slices = append(t.slices, slice{track: track, label: label, startNs: startNs, endNs: endNs})
	t.mu.Unlock()
}

// NumSpans returns the number of completed or open spans recorded.
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ev := range t.events {
		if ev.ph == 'B' {
			n++
		}
	}
	return n
}

// NumSlices returns the number of recorded occupancy slices.
func (t *Tracer) NumSlices() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slices)
}

// SpanNames returns the distinct names of recorded spans, sorted.
func (t *Tracer) SpanNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	for _, ev := range t.events {
		if ev.ph == 'B' {
			seen[ev.name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Observer bundles the observability sinks threaded through the tool
// flow. A nil *Observer (or nil fields) disables everything.
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry
	Events  *EventLog
}

// T returns the tracer (nil when disabled); safe on a nil observer.
func (o *Observer) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// M returns the metrics registry (nil when disabled); safe on a nil
// observer.
func (o *Observer) M() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// E returns the event log (nil when disabled); safe on a nil observer.
func (o *Observer) E() *EventLog {
	if o == nil {
		return nil
	}
	return o.Events
}
