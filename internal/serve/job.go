package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	heteropar "repro"
	"repro/internal/bench"
	"repro/internal/platform"
)

// Request is the JSON body of POST /v1/parallelize. Exactly one of
// Bench (a bundled UTDSP benchmark name) or Source (inline mini-C) must
// be set; everything else is optional with the same defaults as the
// heteropar CLI.
type Request struct {
	// Bench selects a bundled benchmark by name (see `heteropar -list`).
	Bench string `json:"bench,omitempty"`
	// Source is inline mini-C source; Program optionally labels it in
	// the result (default "source.c").
	Source  string `json:"source,omitempty"`
	Program string `json:"program,omitempty"`
	// Platform is "A", "B" or an inline platform JSON object (the
	// `-platform file.json` schema). Default "A".
	Platform json.RawMessage `json:"platform,omitempty"`
	// Scenario is "acc" (default) or "slow"; Approach "het" (default)
	// or "hom".
	Scenario string `json:"scenario,omitempty"`
	Approach string `json:"approach,omitempty"`
	// TimeoutMs caps how long this request waits for its result (queue
	// wait + solve). The solve itself is never abandoned: it runs to
	// completion and lands in the store, so a timed-out client can
	// retry cheaply. 0 means the server default.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Async makes the POST return 202 + a job id immediately; fetch the
	// result with GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
}

// jobSpec is a validated, resolved request: everything a worker needs
// to run the solve, plus the job's content address.
type jobSpec struct {
	name     string
	source   string
	platform *platform.Platform
	scenario heteropar.Scenario
	approach heteropar.Approach
	// scenarioStr / approachStr are the canonical request tokens echoed
	// into the result document.
	scenarioStr string
	approachStr string
	// key is the job's content address: requests with equal keys are
	// interchangeable (identical result bytes), which is what makes
	// coalescing and result caching sound.
	key string
}

// specOf validates and resolves a request. Errors are client errors
// (HTTP 400).
func specOf(req *Request) (*jobSpec, error) {
	spec := &jobSpec{}
	switch {
	case req.Bench != "" && req.Source != "":
		return nil, fmt.Errorf("both bench %q and source given; pass one input", req.Bench)
	case req.Bench != "":
		b := bench.ByName(req.Bench)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q (bundled: %s)", req.Bench, strings.Join(benchNames(), ", "))
		}
		spec.name, spec.source = b.Name, b.Source
	case req.Source != "":
		spec.name, spec.source = req.Program, req.Source
		if spec.name == "" {
			spec.name = "source.c"
		}
	default:
		return nil, fmt.Errorf("empty request: set bench or source")
	}

	pf, err := resolvePlatform(req.Platform)
	if err != nil {
		return nil, err
	}
	if err := pf.Validate(); err != nil {
		return nil, err
	}
	spec.platform = pf

	switch req.Scenario {
	case "", "acc":
		spec.scenario, spec.scenarioStr = heteropar.Accelerator, "acc"
	case "slow":
		spec.scenario, spec.scenarioStr = heteropar.SlowerCores, "slow"
	default:
		return nil, fmt.Errorf("unknown scenario %q (want acc or slow)", req.Scenario)
	}
	switch req.Approach {
	case "", "het":
		spec.approach, spec.approachStr = heteropar.Heterogeneous, "het"
	case "hom":
		spec.approach, spec.approachStr = heteropar.Homogeneous, "hom"
	default:
		return nil, fmt.Errorf("unknown approach %q (want het or hom)", req.Approach)
	}
	if req.TimeoutMs < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0 (got %d)", req.TimeoutMs)
	}
	spec.key = jobKey(spec)
	return spec, nil
}

// resolvePlatform maps the request's platform field — absent, "A", "B"
// or an inline platform object — onto a platform description.
func resolvePlatform(raw json.RawMessage) (*platform.Platform, error) {
	if len(raw) == 0 {
		return heteropar.PlatformA(), nil
	}
	var name string
	if err := json.Unmarshal(raw, &name); err == nil {
		switch {
		case strings.EqualFold(name, "A"):
			return heteropar.PlatformA(), nil
		case strings.EqualFold(name, "B"):
			return heteropar.PlatformB(), nil
		}
		return nil, fmt.Errorf("unknown platform %q (want A, B or an inline platform object)", name)
	}
	pf, err := platform.FromJSON(raw)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return pf, nil
}

// jobKey derives the job's content address with the same fingerprint
// machinery the solution store is keyed on: the program source, the
// platform fingerprint (every solver-visible platform field), the
// resolved main class and the approach. Scenario enters through the
// resolved main class — two scenarios that pick the same class on a
// platform correctly share one entry — and the request's timeout_ms,
// which bounds only how long the caller waits, is excluded, so every
// cache or coalesce hit is guaranteed byte-identical to a fresh solve.
func jobKey(spec *jobSpec) string {
	mainClass := spec.scenario.MainClass(spec.platform)
	h := sha256.Sum256([]byte(fmt.Sprintf("servejob|v1|%d|%s|%s|%d|%s",
		len(spec.source), spec.source, spec.platform.Fingerprint(), mainClass, spec.approachStr)))
	return fmt.Sprintf("%x", h[:16])
}

// benchNames lists the bundled benchmark names in sorted order.
func benchNames() []string {
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return names
}
