// Package clitelemetry is the one place the command-line tools wire
// their shared observability flags: -metrics-addr (live /metrics,
// /healthz, /events, /debug/pprof/ endpoint) and -events (JSONL event
// stream). heteropar, heteropardse and heteropard all start the same
// sinks the same way; this package keeps the flag semantics identical
// across them instead of each main.go growing its own copy.
//
// Telemetry is strictly out-of-band: starting or skipping these sinks
// never changes tool output, only what is observable while the tool
// runs.
package clitelemetry

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/solstore"
)

// Telemetry bundles a CLI's observability wiring: the single shared
// writer every human-readable telemetry block goes through (so -stats
// tables and -v span lines interleave at line granularity, never
// mid-line), the event log feeding the sinks, plus the optional live
// HTTP server and JSONL event file behind them.
type Telemetry struct {
	// Out is the shared human-readable telemetry writer (stderr,
	// serialized). Solver tables, metrics tables and span logging all
	// route through it; stdout stays reserved for program results.
	Out *obs.SyncWriter

	// Events is the structured event log, non-nil whenever any sink
	// (file or server ring) wants events. Hand it to the pipeline via
	// heteropar.Options.Events or dse.Engine.Obs.
	Events *obs.EventLog

	server    *obs.Server
	eventFile *os.File
}

// Start opens the optional telemetry endpoints for the named tool: a
// live /metrics + /debug/pprof server on metricsAddr and a JSONL event
// stream to eventsPath (either may be empty). Out defaults to a
// serialized stderr writer; pass the result's Out to everything that
// prints human-readable telemetry.
func Start(name, metricsAddr, eventsPath string, reg *obs.Registry) (*Telemetry, error) {
	t := &Telemetry{Out: obs.NewSyncWriter(os.Stderr)}
	if eventsPath != "" {
		f, err := os.Create(eventsPath)
		if err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		t.eventFile = f
		t.Events = obs.NewEventLog(f)
	} else if metricsAddr != "" {
		// No file sink, but the server's /events endpoint still wants
		// the in-memory ring.
		t.Events = obs.NewEventLog(nil)
	}
	if metricsAddr != "" {
		srv, err := obs.NewServer(metricsAddr, reg, t.Events)
		if err != nil {
			t.Close()
			return nil, err
		}
		t.server = srv
		fmt.Fprintf(t.Out, "%s: serving /metrics, /healthz, /events, /debug/pprof/ on http://%s\n", name, srv.Addr())
	}
	return t, nil
}

// Addr returns the live telemetry server's bound address ("" when
// -metrics-addr was not given).
func (t *Telemetry) Addr() string {
	if t == nil || t.server == nil {
		return ""
	}
	return t.server.Addr()
}

// SetOut redirects the human-readable writer (tests).
func (t *Telemetry) SetOut(w io.Writer) { t.Out = obs.NewSyncWriter(w) }

// Close stops the server and flushes the event file. Nil-safe.
func (t *Telemetry) Close() {
	if t == nil {
		return
	}
	_ = t.server.Close()
	if t.eventFile != nil {
		_ = t.eventFile.Close()
	}
}

// ValidateStoreCap enforces the shared -store-cap flag contract: the
// capacity must be >= 0, and what 0 means is tool-specific (heteropar
// disables the store, heteropardse and heteropard pick the default
// sizing) — callers pass that meaning so the error spells it out. A
// negative capacity is always a configuration mistake, never a silent
// cache-off.
func ValidateStoreCap(n int, zeroMeaning string) error {
	if n < 0 {
		return fmt.Errorf("-store-cap must be >= 0 (got %d); 0 %s, and the default capacity is %d entries",
			n, zeroMeaning, solstore.DefaultCapacity)
	}
	return nil
}
