package main

import (
	"os"
	"path/filepath"
	"testing"
)

// lintSource runs the linter over one synthetic module package and
// returns the findings.
func lintSource(t *testing.T, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	pkgDir := filepath.Join(dir, "internal", "fake")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "fake.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := Run(dir, []string{"repro/internal/fake"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return findings
}

func rules(fs []Finding) map[string]int {
	out := map[string]int{}
	for _, f := range fs {
		out[f.Rule]++
	}
	return out
}

func TestGlobalMapWriteRule(t *testing.T) {
	findings := lintSource(t, `package fake

var registry = map[string]int{}

func Set(k string, v int)  { registry[k] = v }
func Bump(k string)        { registry[k]++ }
func Remove(k string)      { delete(registry, k) }
func Add(k string, v int)  { registry[k] += v }
`)
	if got := rules(findings)["globalmapwrite"]; got != 4 {
		t.Errorf("got %d globalmapwrite findings, want 4:\n%v", got, findings)
	}
}

func TestGlobalMapWriteIgnoresLocalsAndFields(t *testing.T) {
	findings := lintSource(t, `package fake

import "sync"

type cache struct {
	mu sync.Mutex
	m  map[string]int
}

var shared = cache{m: map[string]int{}}

func (c *cache) Set(k string, v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
}

func Local() int {
	m := map[string]int{}
	m["x"] = 1
	delete(m, "x")
	shared.Set("y", 2)
	return m["x"]
}
`)
	if got := rules(findings)["globalmapwrite"]; got != 0 {
		t.Errorf("mutex-guarded struct fields and locals were flagged:\n%v", findings)
	}
}

func TestGlobalMapWriteWaiver(t *testing.T) {
	findings := lintSource(t, `package fake

var registry = map[string]int{}

func Init() {
	registry["seed"] = 1 //repolint:allow globalmapwrite (package init, single goroutine)
}
`)
	if got := rules(findings)["globalmapwrite"]; got != 0 {
		t.Errorf("waived write was flagged:\n%v", findings)
	}
}

// writeModule lays out a synthetic module tree for the wallclock sweep:
// pkgs maps relative directories ("internal/obs", "cmd/tool") to one Go
// source file each.
func writeModule(t *testing.T, pkgs map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range pkgs {
		pkgDir := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(pkgDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkgDir, "src.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestWallclockSweep exercises the repo-wide timenow confinement: the
// sweep flags time.Now in arbitrary module packages, exempts
// internal/obs wholesale, honors //repolint:allow waivers, and applies
// no other rule (map ranges in swept packages stay legal).
func TestWallclockSweep(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"cmd/tool": `package main

import "time"

func main() { _ = time.Now() }
`,
		"internal/obs": `package obs

import "time"

func Stamp() time.Time { return time.Now() }
`,
		"internal/report": `package report

import "time"

var T = time.Now() //repolint:allow timenow (report timestamp only)

func Keys(m map[string]int) (out []string) {
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	})
	findings, err := RunWallclock(dir)
	if err != nil {
		t.Fatalf("RunWallclock: %v", err)
	}
	got := rules(findings)
	if got["timenow"] != 1 {
		t.Errorf("got %d timenow findings, want exactly the cmd/tool call:\n%v", got["timenow"], findings)
	}
	if got["maprange"] != 0 {
		t.Errorf("wallclock sweep applied non-timenow rules:\n%v", findings)
	}
	for _, f := range findings {
		if filepath.Base(filepath.Dir(f.Pos.Filename)) == "obs" {
			t.Errorf("internal/obs is exempt but was flagged: %v", f)
		}
	}
}

// TestWallclockConfinedPolicy pins the confined-package contract on a
// synthetic internal/serve: wall-clock reads (time.Now AND the
// wallclock rule's time.Since) are findings outside the declared clock
// file, `//repolint:allow` does not silence them, and reads inside
// clock.go are dropped without any waiver.
func TestWallclockConfinedPolicy(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/serve/clock.go", `package serve

import "time"

func now() time.Time                  { return time.Now() }
func since(t time.Time) time.Duration { return time.Since(t) }
`)
	write("internal/serve/handler.go", `package serve

import "time"

func Latency(t0 time.Time) time.Duration {
	return time.Since(t0) //repolint:allow timenow wallclock (must NOT silence a confined package)
}

func Stamp() time.Time { return time.Now() }
`)
	findings, err := RunWallclock(dir)
	if err != nil {
		t.Fatalf("RunWallclock: %v", err)
	}
	got := rules(findings)
	if got["wallclock"] != 1 || got["timenow"] != 1 {
		t.Errorf("got %v findings, want one waiver-proof wallclock (time.Since) and one timenow in handler.go:\n%v", got, findings)
	}
	for _, f := range findings {
		if filepath.Base(f.Pos.Filename) == "clock.go" {
			t.Errorf("clock file read flagged despite confinement policy: %v", f)
		}
	}
}

// TestWallclockRuleAbsentFromFullLint keeps time.Since legal in the
// deterministic packages (where telemetry durations carry timenow
// waivers already): the full lint must not apply the sweep-only
// wallclock rule.
func TestWallclockRuleAbsentFromFullLint(t *testing.T) {
	findings := lintSource(t, `package fake

import "time"

func Elapsed(t0 time.Time) time.Duration { return time.Since(t0) }
`)
	if got := rules(findings); got["wallclock"] != 0 {
		t.Errorf("full lint applied the wallclock rule: %v", findings)
	}
}

// TestMapFmtRule: fmt print-family calls with map-typed arguments are
// flagged; slices, scalars and non-print fmt calls are not.
func TestMapFmtRule(t *testing.T) {
	findings := lintSource(t, `package fake

import (
	"fmt"
	"os"
)

type node struct{ id int }

func Dump(m map[*node]int, s []int) {
	fmt.Println(m)
	fmt.Printf("state: %v\n", m)
	fmt.Fprintf(os.Stderr, "%v %v\n", s, m)
	_ = fmt.Sprintf("%d", len(m))
	fmt.Println(s)
}

func Wrap(m map[string]int) error {
	return fmt.Errorf("bad config: %v", m)
}
`)
	if got := rules(findings)["mapfmt"]; got != 4 {
		t.Errorf("got %d mapfmt findings, want 4 (Println, Printf, Fprintf, Errorf):\n%v", got, findings)
	}
}

// TestStdoutRule: the fmt functions that print to standard output and
// any use of os.Stdout are flagged; writes to other writers are not.
func TestStdoutRule(t *testing.T) {
	findings := lintSource(t, `package fake

import (
	"fmt"
	"os"
)

func Report(n int) {
	fmt.Print(n)
	fmt.Printf("n=%d\n", n)
	fmt.Println(n)
	fmt.Fprintln(os.Stdout, n)
	w := os.Stdout
	_ = w
	fmt.Fprintln(os.Stderr, n)
	_ = fmt.Sprint(n)
}
`)
	if got := rules(findings)["stdout"]; got != 5 {
		t.Errorf("got %d stdout findings, want 5 (Print, Printf, Println, two os.Stdout):\n%v", got, findings)
	}
}

// TestMapFmtWaiver: a waived map print stays legal (e.g. string-keyed maps
// whose rendering is stable).
func TestMapFmtWaiver(t *testing.T) {
	findings := lintSource(t, `package fake

import "fmt"

func Show(m map[string]int) {
	fmt.Println(m) //repolint:allow mapfmt (string keys print sorted and stable)
}
`)
	if got := rules(findings)["mapfmt"]; got != 0 {
		t.Errorf("waived map print was flagged:\n%v", findings)
	}
}

// TestExistingRulesStillFire guards against the new assignment walk
// swallowing the established checks.
func TestExistingRulesStillFire(t *testing.T) {
	findings := lintSource(t, `package fake

import "time"

func Stamp() time.Time { return time.Now() }

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	got := rules(findings)
	if got["timenow"] != 1 || got["maprange"] != 1 {
		t.Errorf("got %v, want one timenow and one maprange finding", got)
	}
}
