package analysis

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/platform"
)

// suiteConfig bounds the ILP search so the whole UTDSP sweep stays within
// CI budgets. The node cap is deliberately tight: truncated searches return
// feasible-but-suboptimal incumbents, which is exactly the regime where
// extraction bugs (mis-decoded mappings, unbudgeted inner parallelism)
// historically surfaced.
func suiteConfig() core.Config {
	return core.Config{
		MaxItemsPerILP:    8,
		MaxCandsPerClass:  3,
		MaxTasksPerRegion: 4,
		MaxILPNodes:       60,
		ILPRelGap:         0.05,
	}
}

// TestVerifySuiteUTDSP runs the race checker over every solution the
// parallelizer produces for the full UTDSP benchmark suite — the best
// solution and every cached candidate in every per-node set — under both
// platform configurations and both main-core scenarios (I: accelerator,
// II: slower cores). The audit is installed through the core.Config.Audit
// hook, the same wiring production uses, so a violation fails Parallelize
// itself. In -short mode only platform config A is swept.
func TestVerifySuiteUTDSP(t *testing.T) {
	platforms := []*platform.Platform{platform.ConfigA(), platform.ConfigB()}
	if testing.Short() {
		platforms = platforms[:1]
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, err := experiments.Prepare(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, pf := range platforms {
				for _, sc := range []platform.Scenario{platform.ScenarioAccelerator, platform.ScenarioSlowerCores} {
					cfg := suiteConfig()
					cfg.Audit = AuditResult
					res, err := core.Parallelize(p.Graph, pf, sc.MainClass(pf), core.Heterogeneous, cfg)
					if err != nil {
						t.Errorf("%s %s: %v", pf.Name, sc, err)
						continue
					}
					if n := len(res.Sets); n == 0 {
						t.Errorf("%s %s: no solution sets audited", pf.Name, sc)
					}
				}
			}
		})
	}
}
