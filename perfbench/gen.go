package main

import (
	"fmt"
	"math/rand"
	"strings"

	heteropar "repro"
	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/minic"
	"repro/internal/platform"
)

// planProgram is one UTDSP program of plan_cold with the platform it is
// planned on.
type planProgram struct {
	Name     string
	Platform string // "A" or "B"
}

// planPlatform is where each program's clock-free cold plan is cheaper,
// so that all ten programs, each planned cold under both scenarios, fit
// in one run. The two expensive plans left out are adpcm_enc on A
// (~16 s) and edge_detect on B (~18 s); see README.md.
var planPlatform = map[string]string{"edge_detect": "A"}

// planOp is one plan_cold operation: a plan of one program under one
// scenario, either cold (fresh store) or warm (the store its cold plan
// under the other scenario just filled).
type planOp struct {
	Prog     planProgram
	Scenario heteropar.Scenario
	Warm     bool
}

func (o planOp) input() string {
	return fmt.Sprintf("%s/%s/%s", o.Prog.Name, o.Prog.Platform, scenarioToken(o.Scenario))
}

// planRound returns one plan_cold round for a seed: two passes over all
// programs in seeded orders. In the first pass each program is planned
// cold under a seeded scenario and then warm under the other; the second
// pass swaps the scenarios. Every program therefore meets both scenarios
// cold and warm in every round, so the round's total work and plan
// quality do not depend on the seed; the seed picks the orders and
// which scenario comes first.
func planRound(seed int64) []planOp {
	rng := rand.New(rand.NewSource(seed))
	var progs []planProgram
	for _, b := range bench.All() {
		pf := planPlatform[b.Name]
		if pf == "" {
			pf = "B"
		}
		progs = append(progs, planProgram{Name: b.Name, Platform: pf})
	}
	first := map[string]heteropar.Scenario{}
	for _, p := range progs {
		first[p.Name] = heteropar.Accelerator
		if rng.Intn(2) == 1 {
			first[p.Name] = heteropar.SlowerCores
		}
	}
	var ops []planOp
	for pass := 0; pass < 2; pass++ {
		for _, i := range rng.Perm(len(progs)) {
			p := progs[i]
			cold := first[p.Name]
			if pass == 1 {
				cold = otherScenario(cold)
			}
			ops = append(ops,
				planOp{Prog: p, Scenario: cold},
				planOp{Prog: p, Scenario: otherScenario(cold), Warm: true})
		}
	}
	return ops
}

func otherScenario(s heteropar.Scenario) heteropar.Scenario {
	if s == heteropar.Accelerator {
		return heteropar.SlowerCores
	}
	return heteropar.Accelerator
}

func scenarioToken(s heteropar.Scenario) string {
	if s == heteropar.SlowerCores {
		return "slow"
	}
	return "acc"
}

func platformByName(name string) *heteropar.Platform {
	if name == "A" {
		return heteropar.PlatformA()
	}
	return heteropar.PlatformB()
}

// floatLiterals returns the byte offsets of the source's floating-point
// literals, in source order. These are the program's data constants;
// control flow in the bundled kernels runs on integers.
func floatLiterals(src string) ([][2]int, error) {
	toks, err := minic.Lex(src)
	if err != nil {
		return nil, err
	}
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	var out [][2]int
	for _, t := range toks {
		if t.Kind != minic.TokFloatLit || t.Pos.Line < 1 || t.Pos.Line > len(lineStart) {
			continue
		}
		off := lineStart[t.Pos.Line-1] + t.Pos.Col - 1
		if off >= 0 && off+len(t.Text) <= len(src) && src[off:off+len(t.Text)] == t.Text && strings.Contains(t.Text, ".") {
			out = append(out, [2]int{off, off + len(t.Text)})
		}
	}
	return out, nil
}

// editSource perturbs one float literal by appending six digits after
// its last fraction digit: "0.25" with k=42 becomes "0.25000042". The
// value moves by less than one part in 10^5 and every k gives a
// distinct source.
func editSource(src string, lit [2]int, k int) string {
	return src[:lit[1]] + fmt.Sprintf("%06d", k%1000000) + src[lit[1]:]
}

// htgHash compiles, profiles and builds the HTG of src and returns its
// canonical hash, which covers every count, cost and edge a region key
// is derived from.
func htgHash(name, src string) (string, error) {
	p, err := experiments.Prepare(&bench.Benchmark{Name: name, Source: src})
	if err != nil {
		return "", err
	}
	return dse.HTGHash(p.Graph), nil
}

// safeLiterals returns the float literals of src whose perturbation
// leaves the HTG hash unchanged, so an edit of any of them reuses every
// region solve of the base program.
func safeLiterals(name, src string) ([][2]int, error) {
	base, err := htgHash(name, src)
	if err != nil {
		return nil, err
	}
	lits, err := floatLiterals(src)
	if err != nil {
		return nil, err
	}
	var safe [][2]int
	for _, lit := range lits {
		h, err := htgHash(name, editSource(src, lit, 1))
		if err == nil && h == base {
			safe = append(safe, lit)
		}
	}
	if len(safe) == 0 {
		return nil, fmt.Errorf("%s: no float literal can be edited without changing the program's HTG", name)
	}
	return safe, nil
}

// dseTotals is the core-count cycle dse_sweep draws its platforms in.
// A step's solve time and its plan's efficiency both follow the
// platform's core count, so a fixed cycle keeps the mix of every run
// the same while the seed picks the clocks and per-class counts.
var dseTotals = []int{4, 5, 6, 7, 8}

// dsePlatforms draws n distinct three-class accelerator-scenario points
// of the default space, following dseTotals. Three-class platforms are
// about 77% of the space; one- and two-class points make a cold step
// several times cheaper, so mixing them in would move the cold-step
// median with the seed's draw instead of with the code.
func dsePlatforms(seed int64, n int) []dse.Point {
	pools := map[int][]dse.Point{}
	for _, pt := range dse.DefaultSpace().Enumerate() {
		if pt.Scenario == platform.ScenarioAccelerator && len(pt.Platform.Classes) == 3 {
			total := pt.Platform.NumCores()
			pools[total] = append(pools[total], pt)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]dse.Point, 0, n)
	for i := 0; i < n; i++ {
		total := dseTotals[i%len(dseTotals)]
		pool := pools[total]
		k := rng.Intn(len(pool))
		out = append(out, pool[k])
		pool[k] = pool[len(pool)-1]
		pools[total] = pool[:len(pool)-1]
	}
	return out
}

// slowTwin is the same platform with the main task on the fastest class.
func slowTwin(pt dse.Point) dse.Point {
	return dse.Point{
		ID:       strings.TrimSuffix(pt.ID, "/acc") + "/slow",
		Platform: pt.Platform,
		Scenario: platform.ScenarioSlowerCores,
	}
}
