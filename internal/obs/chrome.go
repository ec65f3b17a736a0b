package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Chrome trace_event pids: the pipeline's wall-clock spans and the
// simulator's virtual-time occupancy tracks are separate "processes" so
// their unrelated timebases never share an axis row.
const (
	pipelinePID = 1
	simPID      = 2
)

// chromeEvent is one entry of the Chrome trace_event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format, the variant Perfetto and
// chrome://tracing both load.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports the recorded spans and occupancy slices as Chrome
// trace_event JSON. Pipeline spans become duration begin/end ('B'/'E')
// events on the track of the tracer view that recorded them (the main
// track, or a Worker track); simulator slices become complete ('X')
// events, one track per core (virtual nanoseconds mapped to microsecond
// timestamps). Safe on a nil tracer (writes an empty trace).
func (t *Tracer) WriteChrome(w io.Writer) error {
	trace := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}
	if t != nil {
		t.mu.Lock()
		events := append([]event(nil), t.events...)
		slices := append([]slice(nil), t.slices...)
		open := t.open
		t.mu.Unlock()

		// stacks holds each track's open spans; its keys name the tracks.
		stacks := map[int][]string{mainTID: nil}
		for _, ev := range events {
			switch ev.ph {
			case 'B':
				stacks[ev.tid] = append(stacks[ev.tid], ev.name)
			case 'E':
				if st := stacks[ev.tid]; len(st) > 0 {
					stacks[ev.tid] = st[:len(st)-1]
				}
			}
		}
		tids := make([]int, 0, len(stacks))
		for tid := range stacks {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		trace.TraceEvents = append(trace.TraceEvents,
			metaEvent("process_name", pipelinePID, 0, "heteropar pipeline"),
			metaEvent("thread_name", pipelinePID, mainTID, "tool flow"))
		for _, tid := range tids[1:] {
			trace.TraceEvents = append(trace.TraceEvents,
				metaEvent("thread_name", pipelinePID, tid, fmt.Sprintf("worker %d", tid-mainTID-1)))
		}
		for _, ev := range events {
			ce := chromeEvent{
				Name: ev.name,
				Cat:  "pipeline",
				Ph:   string(ev.ph),
				TS:   float64(ev.ts.Nanoseconds()) / 1e3,
				PID:  pipelinePID,
				TID:  ev.tid,
			}
			if len(ev.attrs) > 0 {
				ce.Args = make(map[string]any, len(ev.attrs))
				for _, a := range ev.attrs {
					ce.Args[a.Key] = a.Val
				}
			}
			trace.TraceEvents = append(trace.TraceEvents, ce)
		}
		// Close any still-open spans at the last recorded timestamp so
		// the exported file stays balanced even mid-flow.
		if open > 0 && len(events) > 0 {
			last := float64(events[len(events)-1].ts.Nanoseconds()) / 1e3
			for _, tid := range tids {
				stack := stacks[tid]
				for i := len(stack) - 1; i >= 0; i-- {
					trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
						Name: stack[i], Cat: "pipeline", Ph: "E",
						TS: last, PID: pipelinePID, TID: tid,
					})
				}
			}
		}

		if len(slices) > 0 {
			trackTIDs := map[string]int{}
			var tracks []string
			for _, s := range slices {
				if _, ok := trackTIDs[s.track]; !ok {
					trackTIDs[s.track] = 0
					tracks = append(tracks, s.track)
				}
			}
			sort.Strings(tracks)
			trace.TraceEvents = append(trace.TraceEvents,
				metaEvent("process_name", simPID, 0, "mpsoc simulator (virtual time)"))
			for i, name := range tracks {
				trackTIDs[name] = i + 1
				trace.TraceEvents = append(trace.TraceEvents,
					metaEvent("thread_name", simPID, i+1, name))
			}
			for _, s := range slices {
				trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
					Name: s.label,
					Cat:  "occupancy",
					Ph:   "X",
					TS:   s.startNs / 1e3,
					Dur:  (s.endNs - s.startNs) / 1e3,
					PID:  simPID,
					TID:  trackTIDs[s.track],
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// WriteChromeFile exports the trace to path (0644).
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func metaEvent(name string, pid, tid int, value string) chromeEvent {
	return chromeEvent{
		Name: name,
		Ph:   "M",
		PID:  pid,
		TID:  tid,
		Args: map[string]any{"name": value},
	}
}
