package heteropar_test

import (
	"strings"
	"sync"
	"testing"

	heteropar "repro"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/serve"
)

// recurrenceSrc has a DOALL loop, which the planner can split into
// iteration chunks, feeding a recurrence loop, which stays sequential.
const recurrenceSrc = `
#define N 128
float x[N]; float y[N]; float a1; float a2;
void main(void) {
    for (int i = 0; i < N; i++) { x[i] = sin(i * 0.1); }
    for (int n = 0; n < N; n++) {
        a1 = a1 * 0.9 + x[n] * 0.1;
        a2 = a2 * 0.8 + a1 * a1 + sqrt(fabs(a1) + 1.0);
        y[n] = a2 * a2 + sqrt(fabs(a2) + 2.0);
    }
}
`

// planVariants are the four option sets one program is planned under:
// platforms A and B, both scenarios.
func planVariants() []heteropar.Options {
	var out []heteropar.Options
	for _, pf := range []*heteropar.Platform{heteropar.PlatformA(), heteropar.PlatformB()} {
		for _, sc := range []heteropar.Scenario{heteropar.Accelerator, heteropar.SlowerCores} {
			out = append(out, heteropar.Options{Platform: pf, Scenario: sc})
		}
	}
	return out
}

// renderReport is every byte a report hands out: the canonical JSON
// result, the plan, the specification, the annotated source and the
// generated Go. It may run off the test's goroutine, so it reports with
// t.Errorf.
func renderReport(t *testing.T, rep *heteropar.Report) string {
	t.Helper()
	goSrc, err := rep.GenerateGo()
	if err != nil {
		t.Errorf("GenerateGo: %v", err)
	}
	return string(serve.ResultOf(rep, "p", "-", "het").Encode()) + rep.PlanSummary() +
		rep.ParallelSpec() + rep.AnnotatedSource() + goSrc
}

// TestSharedFrontEndConcurrent plans one program four ways at once on
// one store, so the four plans share its checked program and HTG, and
// checks each against a store-less plan byte for byte. Under -race it
// is the gate that the shared front end is only ever read.
func TestSharedFrontEndConcurrent(t *testing.T) {
	srcs := map[string]string{"recurrence": recurrenceSrc}
	if !testing.Short() {
		srcs["fir_256"] = bench.ByName("fir_256").Source
	}
	for name, src := range srcs {
		variants := planVariants()
		want := make([]string, len(variants))
		for i, opts := range variants {
			rep, err := heteropar.Parallelize(src, opts)
			if err != nil {
				t.Fatalf("%s store-less plan %d: %v", name, i, err)
			}
			want[i] = renderReport(t, rep)
		}

		store := heteropar.NewSolutionStore(0)
		reps := make([]*heteropar.Report, len(variants))
		errs := make([]error, len(variants))
		var wg sync.WaitGroup
		for i, opts := range variants {
			wg.Add(1)
			go func(i int, opts heteropar.Options) {
				defer wg.Done()
				opts.Store = store
				reps[i], errs[i] = heteropar.Parallelize(src, opts)
			}(i, opts)
		}
		wg.Wait()
		got := make([]string, len(variants))
		var render sync.WaitGroup
		for i := range variants {
			if errs[i] != nil {
				t.Fatalf("%s shared plan %d: %v", name, i, errs[i])
			}
			if reps[i].Graph != reps[0].Graph {
				t.Errorf("%s plan %d built its own HTG; want the store's shared one", name, i)
			}
			render.Add(1)
			go func(i int) {
				defer render.Done()
				got[i] = renderReport(t, reps[i])
			}(i)
		}
		render.Wait()
		for i := range variants {
			if got[i] != want[i] {
				t.Errorf("%s plan %d on the shared store differs from its store-less plan:\n--- store-less ---\n%s\n--- shared ---\n%s",
					name, i, want[i], got[i])
			}
		}
		fe := store.Stats().FrontEnd
		if fe.Misses != 1 || fe.Hits+fe.Dedups != int64(len(variants)-1) || fe.Entries != 1 {
			t.Errorf("%s front-end stage %+v; want one build shared by %d plans", name, fe, len(variants))
		}
	}
}

// TestFrontEndStageCounting checks the stage's bookkeeping through the
// facade: a warm plan reuses the front end as one cached span, solution
// lookups count as before, and failures reach the caller with their
// usual text and are never stored.
func TestFrontEndStageCounting(t *testing.T) {
	store := heteropar.NewSolutionStore(0)
	opts := heteropar.Options{Store: store, SkipSimulation: true}
	cold, err := heteropar.Parallelize(demoSrc, opts)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	afterCold := store.Stats()
	opts.Tracer = obs.NewTracer()
	warm, err := heteropar.Parallelize(demoSrc, opts)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	afterWarm := store.Stats()
	if warm.Program != cold.Program || warm.Graph != cold.Graph {
		t.Errorf("warm plan rebuilt its front end")
	}
	if fe := afterWarm.FrontEnd; fe.Misses != 1 || fe.Hits != 1 || fe.Entries != 1 {
		t.Errorf("front-end stage %+v; want one miss, one hit, one entry", fe)
	}
	if afterWarm.Misses != afterCold.Misses || afterWarm.Entries != afterCold.Entries {
		t.Errorf("front-end traffic changed the solution counters: cold %+v, warm %+v", afterCold, afterWarm)
	}
	names := strings.Join(opts.Tracer.SpanNames(), " ")
	for _, span := range []string{"compile", "profile", "htg-build"} {
		if strings.Contains(" "+names+" ", " "+span+" ") {
			t.Errorf("warm plan recorded a %s span: %s", span, names)
		}
	}
	if !strings.Contains(names, "front-end") {
		t.Errorf("warm plan recorded no front-end span: %s", names)
	}

	bad := map[string]string{
		"void main(void) { x = 1; }":                       "heteropar: ",
		"int z; void main(void) { int a = 1; a = a / z; }": "heteropar: profiling failed: ",
	}
	for src, prefix := range bad {
		_, err := heteropar.Parallelize(src, heteropar.Options{SkipSimulation: true})
		if err == nil || !strings.HasPrefix(err.Error(), prefix) {
			t.Fatalf("store-less Parallelize(%q) = %v; want an error starting %q", src, err, prefix)
		}
		for i := 0; i < 2; i++ {
			if _, got := heteropar.Parallelize(src, opts); got == nil || got.Error() != err.Error() {
				t.Errorf("try %d of %q on the store: %v; want %v", i, src, got, err)
			}
		}
	}
	if fe := store.Stats().FrontEnd; fe.Entries != 1 || fe.Misses != 1+2*int64(len(bad)) {
		t.Errorf("front-end stage %+v after failures; want every failure recomputed and none stored", fe)
	}
}
