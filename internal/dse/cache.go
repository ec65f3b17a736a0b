package dse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/htg"
	"repro/internal/platform"
)

// HTGHash returns a canonical content hash of an Augmented Hierarchical
// Task Graph: a depth-first walk over the tree hashing, per node, the
// kind, label, profiled counts, cost-model cycles, boundary
// communication volumes, loop-parallelism facts and every data-flow
// edge (endpoint IDs, kind, bytes). Two graphs with equal hashes are
// indistinguishable to the parallelizer and the simulator, which makes
// the hash a valid solution-cache key component.
func HTGHash(g *htg.Graph) string {
	h := sha256.New()
	buf := make([]byte, 8)
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	ws := func(s string) {
		w64(uint64(len(s)))
		h.Write([]byte(s))
	}
	var walk func(n *htg.Node)
	walk = func(n *htg.Node) {
		w64(uint64(n.ID))
		w64(uint64(n.Kind))
		ws(n.Label)
		wf(n.Count)
		w64(uint64(n.TotalCount))
		wf(n.SelfCycles)
		wf(n.SubtreeCycles)
		w64(uint64(n.InBytes))
		w64(uint64(n.OutBytes))
		if n.Loop != nil {
			w64(1)
			if n.Loop.Parallel {
				w64(1)
			} else {
				w64(0)
			}
		} else {
			w64(0)
		}
		w64(uint64(len(n.Edges)))
		for _, e := range n.Edges {
			w64(uint64(e.From.ID))
			w64(uint64(e.To.ID))
			w64(uint64(e.Kind))
			w64(uint64(e.Bytes))
		}
		w64(uint64(len(n.Children)))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(g.Root)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// CacheKey derives the content address of one sweep evaluation's ILP
// side: program (canonical HTG hash), platform (fingerprint), resolved
// main-core class and the parallelizer configuration. Scenario enters
// through the resolved main class, so two scenarios that pick the same
// class on a platform (e.g. any scenario on a single-class platform)
// share one evaluation. The job's GA seed derives from it; the recall
// key adds the seed and GA settings (Engine.outcomeKey).
func CacheKey(htgHash string, pf *platform.Platform, mainClass int, cfg core.Config) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v1|%s|%s|%d|%s",
		htgHash, pf.Fingerprint(), mainClass, cfg.Fingerprint())))
	return fmt.Sprintf("%x", h[:16])
}

// Outcome is the cached result of one (program, platform, main class,
// config) evaluation: everything the sweep reports, so a cache hit
// skips the ILP solves, the simulation and the GA search. All fields
// are deterministic for a given key; wall-clock quantities are
// deliberately excluded.
type Outcome struct {
	// Speedup is the simulator-measured speedup of the ILP plan over
	// sequential execution on the main core; EstimatedSpeedup the
	// parallelizer's own cost-model prediction.
	Speedup          float64 `json:"speedup"`
	EstimatedSpeedup float64 `json:"estimated_speedup"`
	// MakespanNs and SequentialNs are the simulated parallel and
	// sequential execution times.
	MakespanNs   float64 `json:"makespan_ns"`
	SequentialNs float64 `json:"sequential_ns"`
	// EnergyUJ is the simulated energy of the parallel execution (from
	// the platform's ProcClass power fields); SequentialEnergyUJ the
	// sequential baseline's.
	EnergyUJ           float64 `json:"energy_uj"`
	SequentialEnergyUJ float64 `json:"sequential_energy_uj"`
	// NumTasks is the task count of the chosen root solution; NumILPs
	// the number of ILPs solved to find it.
	NumTasks int `json:"num_tasks"`
	NumILPs  int `json:"num_ilps"`
	// GASpeedup is the estimated speedup of the best task→core mapping
	// the genetic algorithm found; GAGapPct the relative objective gap
	// to the ILP's estimate in percent (positive = GA worse).
	GASpeedup float64 `json:"ga_speedup"`
	GAGapPct  float64 `json:"ga_gap_pct"`
}

// dseKeyPrefix namespaces whole-solution outcomes inside the shared
// store; region keys carry a "region|" prefix (see core), so the two
// populations can never collide.
const dseKeyPrefix = "dse|"

// outcomeKey is the recall address of one job's Outcome: its CacheKey
// extended by what the GA baseline also depends on, the sweep seed and
// the resolved GA settings. The store entry ("dse|" + key) and the
// CacheDir file (<key>.json) both use it.
func (e *Engine) outcomeKey(cacheKey string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%+v", cacheKey, e.Seed, e.GA.withDefaults())))
	return fmt.Sprintf("%x", h[:16])
}

// readOutcome loads <key>.json from CacheDir; false when CacheDir is
// unset or the file is missing or unreadable.
func (e *Engine) readOutcome(key string) (Outcome, bool) {
	var out Outcome
	if e.CacheDir == "" {
		return out, false
	}
	data, err := os.ReadFile(filepath.Join(e.CacheDir, key+".json"))
	return out, err == nil && json.Unmarshal(data, &out) == nil
}

// writeOutcome persists out as <key>.json under CacheDir (atomically,
// via rename); a no-op when CacheDir is unset.
func (e *Engine) writeOutcome(key string, out Outcome) error {
	if e.CacheDir == "" {
		return nil
	}
	if err := os.MkdirAll(e.CacheDir, 0o755); err != nil {
		return fmt.Errorf("dse: cache dir: %w", err)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(e.CacheDir, key+".json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("dse: cache write: %w", err)
	}
	return os.Rename(tmp, filepath.Join(e.CacheDir, key+".json"))
}
