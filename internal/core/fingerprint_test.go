package core

import (
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
	// Observability sinks must not affect the fingerprint.
	instr := expl
	instr.Tracer = obs.NewTracer()
	instr.Metrics = obs.NewRegistry()
	if instr.Fingerprint() != expl.Fingerprint() {
		t.Errorf("observer changed the fingerprint")
	}
	// The shared store must not either: it is guaranteed output-neutral
	// (region keys cover every solver-visible input), so cached
	// whole-run outcomes stay valid across store configurations.
	sched := expl
	sched.Store = solstore.New(solstore.Options{})
	if sched.Fingerprint() != expl.Fingerprint() {
		t.Errorf("Store changed the fingerprint")
	}
	// Every solver-relevant knob must affect it.
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"items", func(c *Config) { c.MaxItemsPerILP = 8 }},
		{"cands", func(c *Config) { c.MaxCandsPerClass = 3 }},
		{"tasks", func(c *Config) { c.MaxTasksPerRegion = 4 }},
		{"nodes", func(c *Config) { c.MaxILPNodes = 100 }},
		{"timeout", func(c *Config) { c.ILPTimeout = time.Second }},
		{"gap", func(c *Config) { c.ILPRelGap = 0.05 }},
		{"chunking", func(c *Config) { c.DisableChunking = true }},
		{"pipelining", func(c *Config) { c.EnablePipelining = true }},
		{"hierarchy", func(c *Config) { c.DisableHierarchy = true }},
	}
	for _, m := range muts {
		c := expl
		m.mut(&c)
		if c.Fingerprint() == expl.Fingerprint() {
			t.Errorf("%s change did not change the fingerprint", m.name)
		}
	}
	if strings.ContainsAny(zero.Fingerprint(), "\n") {
		t.Errorf("fingerprint must be a single line")
	}
}
