package serve

import (
	"encoding/json"

	heteropar "repro"
)

// Result is the canonical machine-readable outcome of one parallelize
// run: the document `heteropar -json` prints and the daemon's
// `POST /v1/parallelize` returns. The two paths share this one type and
// encoder so their outputs are byte-identical for equal inputs — the
// serving layer is a transport, never a second source of truth.
//
// Every field is deterministic for a given (program, platform,
// scenario, approach): wall-clock quantities such as ILP solve time are
// deliberately excluded, so equal requests yield equal bytes whether
// they were solved cold, replayed from the store, or coalesced onto
// another request's solve.
type Result struct {
	// Program names the input (bundled benchmark name or caller-supplied
	// label); Platform is the target platform's name.
	Program  string `json:"program"`
	Platform string `json:"platform"`
	// Scenario and Approach use the CLI flag vocabulary: "acc"/"slow"
	// and "het"/"hom".
	Scenario string `json:"scenario"`
	Approach string `json:"approach"`
	// MainClass is the resolved main processor class index;
	// MainClassName its platform name.
	MainClass     int    `json:"main_class"`
	MainClassName string `json:"main_class_name"`
	// Tasks is the flattened task count of the chosen plan.
	Tasks int `json:"tasks"`
	// NumILPs / NumVars / NumConstraints summarize the ILP work.
	NumILPs        int `json:"num_ilps"`
	NumVars        int `json:"num_vars"`
	NumConstraints int `json:"num_constraints"`
	// SequentialNs and MakespanNs are the simulated sequential baseline
	// and parallel execution times.
	SequentialNs float64 `json:"sequential_ns"`
	MakespanNs   float64 `json:"makespan_ns"`
	// MeasuredSpeedup (simulator), EstimatedSpeedup (cost model) and
	// TheoreticalSpeedup (platform bound) mirror the CLI summary lines.
	MeasuredSpeedup    float64 `json:"measured_speedup"`
	EstimatedSpeedup   float64 `json:"estimated_speedup"`
	TheoreticalSpeedup float64 `json:"theoretical_speedup"`
	// EnergyUJ and SequentialEnergyUJ are the simulated energies of the
	// parallel execution and the sequential baseline.
	EnergyUJ           float64 `json:"energy_uj"`
	SequentialEnergyUJ float64 `json:"sequential_energy_uj"`
}

// ResultOf distills a facade report into the canonical result.
// scenario and approach are the flag-vocabulary tokens of the request
// ("acc"/"slow", "het"/"hom").
func ResultOf(rep *heteropar.Report, program, scenario, approach string) *Result {
	return &Result{
		Program:            program,
		Platform:           rep.Result.Platform.Name,
		Scenario:           scenario,
		Approach:           approach,
		MainClass:          rep.MainClass,
		MainClassName:      rep.Result.Platform.Classes[rep.MainClass].Name,
		Tasks:              rep.NumTasks(),
		NumILPs:            rep.Result.Stats.NumILPs,
		NumVars:            rep.Result.Stats.NumVars,
		NumConstraints:     rep.Result.Stats.NumConstraints,
		SequentialNs:       rep.SequentialNs,
		MakespanNs:         rep.MeasuredMakespanNs,
		MeasuredSpeedup:    rep.MeasuredSpeedup,
		EstimatedSpeedup:   rep.EstimatedSpeedup,
		TheoreticalSpeedup: rep.TheoreticalLimit(),
		EnergyUJ:           rep.MeasuredEnergyUJ,
		SequentialEnergyUJ: rep.SequentialEnergyUJ,
	}
}

// Encode renders the result as the canonical JSON document: two-space
// indentation, struct field order, one trailing newline. Both the CLI
// and the daemon emit exactly these bytes. The slice has no spare
// capacity, since the daemon keeps it for as long as the outcome is
// cached.
func (r *Result) Encode() []byte {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// A flat struct of strings/ints/floats cannot fail to marshal;
		// keep the signature allocation-free for callers anyway.
		return []byte("{}\n")
	}
	doc := make([]byte, len(buf)+1)
	copy(doc, buf)
	doc[len(buf)] = '\n'
	return doc
}
