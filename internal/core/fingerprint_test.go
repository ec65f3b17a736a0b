package core

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/solstore"
)

func TestConfigFingerprint(t *testing.T) {
	// The zero config and the explicitly-defaulted config are equivalent.
	var zero Config
	expl := Config{MaxItemsPerILP: 12, MaxCandsPerClass: 5, MaxILPNodes: 1500,
		ILPRelGap: 0.01}
	if zero.Fingerprint() != expl.Fingerprint() {
		t.Errorf("zero config fingerprint %q != defaulted %q", zero.Fingerprint(), expl.Fingerprint())
	}
	// Output-neutral fields must not affect the fingerprint: the
	// observability sinks and the audit hook never change which
	// solutions are produced, and the shared store is guaranteed
	// output-neutral (region keys cover every solver-visible input), so
	// cached whole-run outcomes stay valid across store configurations.
	neutral := map[string]func(*Config){
		"Tracer":  func(c *Config) { c.Tracer = obs.NewTracer() },
		"Metrics": func(c *Config) { c.Metrics = obs.NewRegistry() },
		"Events":  func(c *Config) { c.Events = obs.NewEventLog(io.Discard) },
		"Audit":   func(c *Config) { c.Audit = func(*Result) error { return nil } },
		"Store":   func(c *Config) { c.Store = solstore.New(solstore.Options{}) },
	}
	// Every solver-relevant knob must affect it.
	muts := map[string]func(*Config){
		"MaxItemsPerILP":    func(c *Config) { c.MaxItemsPerILP = 8 },
		"MaxCandsPerClass":  func(c *Config) { c.MaxCandsPerClass = 3 },
		"MaxTasksPerRegion": func(c *Config) { c.MaxTasksPerRegion = 4 },
		"MaxILPNodes":       func(c *Config) { c.MaxILPNodes = 100 },
		"ILPTimeout":        func(c *Config) { c.ILPTimeout = time.Second },
		"ILPRelGap":         func(c *Config) { c.ILPRelGap = 0.05 },
		"DisableChunking":   func(c *Config) { c.DisableChunking = true },
		"DisableHierarchy":  func(c *Config) { c.DisableHierarchy = true },
	}
	// Every field is classified, so a field added later without a
	// fingerprint term (or a neutral entry) fails here.
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if muts[name] == nil && neutral[name] == nil {
			t.Errorf("Config.%s has neither a fingerprint mutation nor an output-neutral entry", name)
		}
	}
	for name, mut := range neutral {
		c := expl
		mut(&c)
		if c.Fingerprint() != expl.Fingerprint() {
			t.Errorf("%s changed the fingerprint", name)
		}
	}
	for name, mut := range muts {
		c := expl
		mut(&c)
		if c.Fingerprint() == expl.Fingerprint() {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
	if strings.ContainsAny(zero.Fingerprint(), "\n") {
		t.Errorf("fingerprint must be a single line")
	}
}
