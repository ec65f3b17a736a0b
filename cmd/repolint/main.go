// Command repolint is the repository's determinism lint. The parallelizer
// must be a pure function of (program, platform, configuration): equal
// inputs give byte-identical plans, costs and sweep reports. That property
// is easy to lose through three innocuous Go idioms, so this tool walks the
// deterministic packages (by default internal/core, internal/dataflow,
// internal/dse, internal/ilp, internal/interp, internal/minic and
// internal/solstore) with go/ast + go/types and reports:
//
//	timenow    — calls to time.Now (wall-clock leaks into results);
//	globalrand — math/rand package-level calls, which draw from the
//	             process-global, unseeded source (rand.New(rand.NewSource(
//	             seed)) and *rand.Rand methods are fine);
//	maprange   — range over a map, whose iteration order differs per run;
//	numcpu     — runtime.NumCPU / runtime.GOMAXPROCS, which silently tie
//	             search width (and with it solver trajectories) to the
//	             host machine instead of explicit configuration.
//	mapfmt     — map values passed to the fmt print family. fmt sorts
//	             map keys, but maps keyed or valued by pointers render
//	             as addresses that differ run to run, so a %v of
//	             map[*Node]X silently breaks byte-identical reports;
//	             format maps through an explicit sorted rendering or
//	             waive sites whose key and value types print stably.
//	globalmapwrite — assignments to (or deletes from) package-level
//	             maps. Now that solves run on worker pools, an
//	             unguarded global map is a data race waiting for the
//	             right interleaving; keep mutable maps behind a struct
//	             with a mutex (as internal/solstore does) or waive
//	             sites that are provably single-goroutine.
//	stdout     — fmt.Print, fmt.Printf, fmt.Println and os.Stdout.
//	             Standard output carries the tools' results (the
//	             `heteropar -json` document), so a library print there
//	             corrupts them; report through return values, the obs
//	             sinks or a caller-supplied writer.
//
// Sites that are deliberately order-insensitive or wall-clock based (solver
// deadlines, telemetry timestamps) carry an explicit waiver: a
// `//repolint:allow <rule>` comment on the offending line or the line
// directly above it.
//
// In addition to the full lint of the deterministic packages, the default
// run sweeps every other package of the module with the timenow rule
// alone, so wall-clock reads stay confined to internal/obs (the telemetry
// layer, which owns time) and explicitly waived sites. That keeps new
// time.Now calls from creeping into CLIs or analysis code unreviewed.
//
// Packages listed in wallclockConfined get a stricter, waiver-free
// policy: all wall-clock reads (time.Now, and the wallclock rule's
// time.Since / time.Until) must live in the package's declared clock
// file(s); everywhere else in the package they are findings that no
// `//repolint:allow` comment can silence. This replaces ad-hoc waiver
// scatter in packages that legitimately measure latency (the serving
// layer): the clock file is the single audited doorway, and the policy
// itself is tested in main_test.go.
//
// Exit status is 1 when any unwaived finding remains, so `make lint` gates
// CI on determinism.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultPackages are the deterministic core of the tool: the ILP solver,
// the parallelization algorithm, the dataflow analysis, the
// design-space-exploration engine (whose sweeps must be byte-identical
// across runs and worker counts), the solve store, and the front end and
// profiler (mini-C and the interpreter), whose statement counts feed the
// HTG and with it every store key.
var defaultPackages = []string{
	"repro/internal/core",
	"repro/internal/dataflow",
	"repro/internal/dse",
	"repro/internal/ilp",
	"repro/internal/interp",
	"repro/internal/minic",
	"repro/internal/solstore",
}

const modulePath = "repro"

// Finding is one determinism violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

func main() {
	root := flag.String("root", "", "module root (default: walk up from cwd to go.mod)")
	flag.Parse()
	dir := *root
	if dir == "" {
		var err error
		dir, err = findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			os.Exit(2)
		}
	}
	pkgs := flag.Args()
	sweep := len(pkgs) == 0
	if sweep {
		pkgs = defaultPackages
	}
	findings, err := Run(dir, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	if sweep {
		wf, err := RunWallclock(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			os.Exit(2)
		}
		findings = append(findings, wf...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// fullRules are the rules the deterministic-package lint applies. The
// wallclock rule (time.Since / time.Until) is deliberately absent: in
// the deterministic packages those reads feed telemetry only and carry
// timenow waivers where they matter; the stricter rule exists for the
// wallclockConfined sweep below.
var fullRules = map[string]bool{
	"timenow":        true,
	"globalrand":     true,
	"maprange":       true,
	"numcpu":         true,
	"globalmapwrite": true,
	"mapfmt":         true,
	"stdout":         true,
}

// Run lints the named packages rooted at dir and returns the unwaived
// findings sorted by position.
func Run(dir string, pkgs []string) ([]Finding, error) {
	l := newLinter(dir)
	var findings []Finding
	for _, path := range pkgs {
		fs, err := l.lintPackage(path, fullRules)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

// wallclockExempt are module packages allowed to read the wall clock
// without waivers: the telemetry layer itself, whose entire purpose is
// timestamps and latency measurement.
var wallclockExempt = map[string]bool{
	"repro/internal/obs": true,
}

// wallclockConfined maps a package to the set of file basenames its
// wall-clock reads must live in. Confined packages trade waivers for a
// doorway: time.Now, time.Since and time.Until are all findings
// anywhere outside the listed clock file(s), and `//repolint:allow`
// comments do not silence them — moving a read means moving it through
// the clock file, where it is reviewed once. The serving layer measures
// request and solve latency constantly; one audited clock.go beats a
// waiver on every call site.
var wallclockConfined = map[string]map[string]bool{
	"repro/internal/serve": {"clock.go": true},
}

// RunWallclock sweeps every module package that the full determinism
// lint does not already cover. Ordinary packages get the timenow rule
// alone (time.Now stays confined to internal/obs and waived sites);
// wallclockConfined packages additionally get the wallclock rule
// (time.Since / time.Until), with findings inside their declared clock
// files dropped and waivers ignored.
func RunWallclock(dir string) ([]Finding, error) {
	pkgs, err := modulePackages(dir)
	if err != nil {
		return nil, err
	}
	full := map[string]bool{}
	for _, p := range defaultPackages {
		full[p] = true
	}
	l := newLinter(dir)
	timenowOnly := map[string]bool{"timenow": true}
	confinedRules := map[string]bool{"timenow": true, "wallclock": true}
	var findings []Finding
	for _, path := range pkgs {
		if full[path] || wallclockExempt[path] {
			continue
		}
		if clockFiles, ok := wallclockConfined[path]; ok {
			fs, err := l.lintPackageUnwaivable(path, confinedRules)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			for _, f := range fs {
				if !clockFiles[filepath.Base(f.Pos.Filename)] {
					findings = append(findings, f)
				}
			}
			continue
		}
		fs, err := l.lintPackage(path, timenowOnly)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

// modulePackages walks the module tree and returns the import path of
// every directory holding non-test Go files, sorted.
func modulePackages(dir string) ([]string, error) {
	var pkgs []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); p != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
			return fs.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			pkgs = append(pkgs, modulePath)
		} else {
			pkgs = append(pkgs, modulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(pkgs)
	return pkgs, nil
}

func newLinter(dir string) *linter {
	l := &linter{
		fset:  token.NewFileSet(),
		root:  dir,
		cache: map[string]*checked{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	return l
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
}

// linter type-checks repo packages from source. It doubles as the
// types.ImporterFrom the checker uses to resolve imports: module-internal
// paths are mapped onto repo directories; everything else defers to the
// stdlib source importer.
type linter struct {
	fset  *token.FileSet
	root  string
	std   types.ImporterFrom
	cache map[string]*checked
}

// checked is one type-checked module package. Every module package is
// checked exactly once — re-checking would mint a second *types.Package
// and make identical types unassignable across import paths — so the
// parsed files and use info are kept for the lint walk.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *linter) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *linter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	c, err := l.check(path)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

func (l *linter) check(path string) (*checked, error) {
	if c, ok := l.cache[path]; ok {
		return c, nil
	}
	files, err := l.parseDir(path, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	cfg := types.Config{Importer: l}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	c := &checked{pkg: pkg, files: files, info: info}
	l.cache[path] = c
	return c, nil
}

// pkgDir maps an import path inside the module to its directory.
func (l *linter) pkgDir(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// parseDir parses every non-test Go file of the package.
func (l *linter) parseDir(path string, mode parser.Mode) ([]*ast.File, error) {
	dir := l.pkgDir(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

// lintPackage type-checks one target package and walks its files,
// honoring `//repolint:allow` waivers. A non-nil rules set restricts
// reporting to those rules (the wallclock sweep passes {timenow});
// nil applies every rule.
func (l *linter) lintPackage(path string, rules map[string]bool) ([]Finding, error) {
	return l.lint(path, rules, true)
}

// lintPackageUnwaivable is lintPackage with waivers ignored — the
// wallclockConfined policy, where the clock file is the only doorway
// and per-site waivers would defeat the confinement.
func (l *linter) lintPackageUnwaivable(path string, rules map[string]bool) ([]Finding, error) {
	return l.lint(path, rules, false)
}

func (l *linter) lint(path string, rules map[string]bool, honorWaivers bool) ([]Finding, error) {
	c, err := l.check(path)
	if err != nil {
		return nil, err
	}
	info := c.info
	var findings []Finding
	for _, f := range c.files {
		waived := waivers(l.fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			var found *Finding
			switch n := n.(type) {
			case *ast.CallExpr:
				found = l.checkCall(n, info)
				if found == nil {
					found = l.checkDelete(n, info)
				}
			case *ast.RangeStmt:
				found = l.checkRange(n, info)
			case *ast.AssignStmt:
				found = l.checkAssign(n, info)
			case *ast.IncDecStmt:
				found = l.checkMapWrite(n.X, info)
			case *ast.SelectorExpr:
				found = l.checkStdout(n, info)
			}
			if found != nil && rules != nil && !rules[found.Rule] {
				found = nil
			}
			if found != nil && honorWaivers && (waived[found.Pos.Line][found.Rule] || waived[found.Pos.Line-1][found.Rule]) {
				found = nil
			}
			if found != nil {
				findings = append(findings, *found)
			}
			return true
		})
	}
	return findings, nil
}

// waivers collects //repolint:allow directives: line -> waived rule set.
func waivers(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "repolint:allow") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if out[line] == nil {
				out[line] = map[string]bool{}
			}
			for _, rule := range strings.Fields(strings.TrimPrefix(text, "repolint:allow")) {
				out[line][strings.TrimSuffix(rule, ",")] = true
			}
		}
	}
	return out
}

func (l *linter) checkCall(call *ast.CallExpr, info *types.Info) *Finding {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return nil // methods (e.g. *rand.Rand drawn from a seeded source) are fine
	}
	switch {
	case fn.Pkg().Path() == "time" && fn.Name() == "Now":
		return &Finding{
			Pos:  l.fset.Position(call.Pos()),
			Rule: "timenow",
			Msg:  "time.Now leaks wall-clock time into a deterministic package",
		}
	case fn.Pkg().Path() == "time" && (fn.Name() == "Since" || fn.Name() == "Until"):
		return &Finding{
			Pos:  l.fset.Position(call.Pos()),
			Rule: "wallclock",
			Msg:  fmt.Sprintf("time.%s reads the wall clock outside the package's clock file; route it through the declared clock file (see wallclockConfined)", fn.Name()),
		}
	case fn.Pkg().Path() == "math/rand" && fn.Name() != "New" && fn.Name() != "NewSource":
		return &Finding{
			Pos:  l.fset.Position(call.Pos()),
			Rule: "globalrand",
			Msg:  fmt.Sprintf("rand.%s draws from the process-global source; use rand.New(rand.NewSource(seed))", fn.Name()),
		}
	case fn.Pkg().Path() == "runtime" && (fn.Name() == "NumCPU" || fn.Name() == "GOMAXPROCS"):
		return &Finding{
			Pos:  l.fset.Position(call.Pos()),
			Rule: "numcpu",
			Msg:  fmt.Sprintf("runtime.%s makes behavior depend on the host machine; take widths from explicit configuration (e.g. dse.Engine.Workers) or waive if results stay machine-independent", fn.Name()),
		}
	case fn.Pkg().Path() == "fmt" && printFamily[fn.Name()]:
		if typ := l.mapArgType(call, info); typ != "" {
			return &Finding{
				Pos:  l.fset.Position(call.Pos()),
				Rule: "mapfmt",
				Msg:  fmt.Sprintf("fmt.%s formats a %s directly; pointer keys or values print as per-run addresses — render the map through an explicit sorted form or waive if the types print stably", fn.Name(), typ),
			}
		}
	}
	return nil
}

// checkStdout flags the fmt functions that print to standard output and
// any use of os.Stdout, called or passed on.
func (l *linter) checkStdout(sel *ast.SelectorExpr, info *types.Info) *Finding {
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	pkg, name := obj.Pkg().Path(), obj.Name()
	if !(pkg == "fmt" && stdoutPrints[name]) && !(pkg == "os" && name == "Stdout") {
		return nil
	}
	return &Finding{
		Pos:  l.fset.Position(sel.Pos()),
		Rule: "stdout",
		Msg:  fmt.Sprintf("%s.%s writes to standard output, which carries the tools' results; return the data or take a writer", pkg, name),
	}
}

// stdoutPrints are the fmt functions that write to standard output.
var stdoutPrints = map[string]bool{"Print": true, "Printf": true, "Println": true}

// printFamily is the set of fmt functions whose arguments end up rendered
// with the default formatter.
var printFamily = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Errorf": true, "Appendf": true,
}

// mapArgType returns the printed type of the first map-typed argument of a
// fmt print-family call ("" when none). Format strings and io.Writer
// receivers are never maps, so every argument can be inspected uniformly.
func (l *linter) mapArgType(call *ast.CallExpr, info *types.Info) string {
	for _, arg := range call.Args {
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return tv.Type.String()
		}
	}
	return ""
}

// checkAssign flags `globalMap[k] = v` (also +=, multi-assign).
func (l *linter) checkAssign(as *ast.AssignStmt, info *types.Info) *Finding {
	for _, lhs := range as.Lhs {
		if f := l.checkMapWrite(lhs, info); f != nil {
			return f
		}
	}
	return nil
}

// checkDelete flags `delete(globalMap, k)`.
func (l *linter) checkDelete(call *ast.CallExpr, info *types.Info) *Finding {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) != 2 {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "delete" {
		return nil
	}
	if v := l.globalMapVar(call.Args[0], info); v != nil {
		return &Finding{
			Pos:  l.fset.Position(call.Pos()),
			Rule: "globalmapwrite",
			Msg:  fmt.Sprintf("delete from package-level map %s; unguarded global maps race under the region worker pools — keep mutable maps behind a mutex-guarded struct or waive", v.Name()),
		}
	}
	return nil
}

// checkMapWrite flags an index expression over a package-level map used
// as a write target.
func (l *linter) checkMapWrite(expr ast.Expr, info *types.Info) *Finding {
	ix, ok := expr.(*ast.IndexExpr)
	if !ok {
		return nil
	}
	tv, ok := info.Types[ix.X]
	if !ok || tv.Type == nil {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return nil
	}
	if v := l.globalMapVar(ix.X, info); v != nil {
		return &Finding{
			Pos:  l.fset.Position(expr.Pos()),
			Rule: "globalmapwrite",
			Msg:  fmt.Sprintf("write to package-level map %s; unguarded global maps race under the region worker pools — keep mutable maps behind a mutex-guarded struct or waive", v.Name()),
		}
	}
	return nil
}

// globalMapVar resolves expr to a package-level map variable, nil
// otherwise. Struct fields and locals (including mutex-carrying cache
// structs) are fine; only bare package-scope maps are flagged.
func (l *linter) globalMapVar(expr ast.Expr, info *types.Info) *types.Var {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel // otherpkg.GlobalMap
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil // local variable
	}
	if _, isMap := v.Type().Underlying().(*types.Map); !isMap {
		return nil
	}
	return v
}

func (l *linter) checkRange(rs *ast.RangeStmt, info *types.Info) *Finding {
	tv, ok := info.Types[rs.X]
	if !ok {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return nil
	}
	return &Finding{
		Pos:  l.fset.Position(rs.Pos()),
		Rule: "maprange",
		Msg:  "map iteration order varies per run; sort the keys or waive if provably order-insensitive",
	}
}
