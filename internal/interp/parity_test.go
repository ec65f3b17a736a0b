package interp

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/minic"
)

// outcome is everything observable about one run: the profile, the error
// or panic, and every global's final contents.
type outcome struct {
	prof    *Profile
	err     string
	rtErr   bool // err is a *RuntimeError
	panic   string
	sum     uint64 // GlobalChecksum bits
	globals []string
}

// runner is the surface the executor and the reference share.
type runner interface {
	Run() (*Profile, error)
	GlobalChecksum() float64
	GlobalValue(name string) Value
}

func observe(prog *minic.Program, r runner) (o outcome) {
	func() {
		defer func() {
			if p := recover(); p != nil {
				o.panic = fmt.Sprint(p)
			}
		}()
		prof, err := r.Run()
		o.prof = prof
		if err != nil {
			_, o.rtErr = err.(*RuntimeError)
			o.err = err.Error()
		}
	}()
	o.sum = math.Float64bits(r.GlobalChecksum())
	for _, g := range prog.Globals {
		o.globals = append(o.globals, dumpValue(r.GlobalValue(g.Name)))
	}
	return o
}

func dumpValue(v Value) string {
	bits := make([]uint64, len(v.Arr))
	for i, x := range v.Arr {
		bits[i] = math.Float64bits(x)
	}
	return fmt.Sprintf("%s I=%d F=%x Arr=%x IntArr=%v Root=%p+%d",
		v.Type, v.I, math.Float64bits(v.F), bits, v.IntArr, v.Root, v.RootOff)
}

// runBoth runs prog under the reference evaluator and the executor with
// the same settings.
func runBoth(prog *minic.Program, stepLimit int64, footprints bool) (want, got outcome) {
	ref := newRef(prog)
	ref.StepLimit, ref.RecordFootprints = stepLimit, footprints
	in := New(prog)
	in.StepLimit, in.RecordFootprints = stepLimit, footprints
	return observe(prog, ref), observe(prog, in)
}

// diffOutcomes describes the first difference between two outcomes, or
// returns "" when they are identical.
func diffOutcomes(want, got outcome) string {
	switch {
	case want.panic != got.panic:
		return fmt.Sprintf("panic: reference %q, executor %q", want.panic, got.panic)
	case want.err != got.err || want.rtErr != got.rtErr:
		return fmt.Sprintf("error: reference %q (*RuntimeError %v), executor %q (*RuntimeError %v)",
			want.err, want.rtErr, got.err, got.rtErr)
	case want.sum != got.sum:
		return fmt.Sprintf("GlobalChecksum: reference %x, executor %x", want.sum, got.sum)
	case !reflect.DeepEqual(want.globals, got.globals):
		return fmt.Sprintf("globals:\nreference %q\nexecutor  %q", want.globals, got.globals)
	case (want.prof == nil) != (got.prof == nil):
		return fmt.Sprintf("profile: reference %v, executor %v", want.prof != nil, got.prof != nil)
	case want.prof == nil:
		return ""
	case want.prof.OpCount != got.prof.OpCount:
		return fmt.Sprintf("OpCount: reference %d, executor %d", want.prof.OpCount, got.prof.OpCount)
	case !reflect.DeepEqual(want.prof.FuncCount, got.prof.FuncCount):
		return fmt.Sprintf("FuncCount: reference %d funcs, executor %d", len(want.prof.FuncCount), len(got.prof.FuncCount))
	case !reflect.DeepEqual(want.prof.StmtCount, got.prof.StmtCount):
		return "StmtCount: " + firstStmtDiff(want.prof.StmtCount, got.prof.StmtCount)
	case !reflect.DeepEqual(want.prof.Footprints, got.prof.Footprints):
		return fmt.Sprintf("Footprints: reference %d statements, executor %d", len(want.prof.Footprints), len(got.prof.Footprints))
	}
	return ""
}

func firstStmtDiff(want, got map[minic.Stmt]int64) string {
	for s, n := range want {
		if got[s] != n {
			return fmt.Sprintf("%T at %s: reference %d, executor %d", s, s.NodePos(), n, got[s])
		}
	}
	for s, n := range got {
		if _, ok := want[s]; !ok {
			return fmt.Sprintf("%T at %s: reference absent, executor %d", s, s.NodePos(), n)
		}
	}
	return fmt.Sprintf("%d vs %d statements", len(want), len(got))
}

// TestProfileParity requires the executor to reproduce the reference
// evaluator's profile, footprints and checksum on every benchmark program,
// with footprint recording off and on.
func TestProfileParity(t *testing.T) {
	for _, b := range bench.All() {
		for _, fp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/footprints=%v", b.Name, fp), func(t *testing.T) {
				if fp && testing.Short() {
					t.Skip("footprint recording is slow in the reference")
				}
				prog, err := minic.Compile(b.Source)
				if err != nil {
					t.Fatal(err)
				}
				want, got := runBoth(prog, 1<<32, fp)
				if want.err != "" || want.panic != "" {
					t.Fatalf("reference failed: %s%s", want.err, want.panic)
				}
				if d := diffOutcomes(want, got); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}

// parityCases pin the evaluator's quirks and every runtime error. Each
// program stores its result in the global r; want is r's value, or the
// exact error or panic text, or the checker's exact diagnostics for a
// program it rejects. Assignments and ++/-- used as values are rejected,
// so the cases named for the value they yield pin that rejection.
var parityCases = []struct {
	name, src, want string
}{
	{"incdec yields the new value", `int r; void main(void) { int i = 3; r = i++; }`, "1:42: error: ++ used as a value: it is allowed only as a statement or a for init/post"},
	{"predec yields the new value", `int r; void main(void) { int i = 3; r = --i + i--; }`, "1:41: error: -- used as a value: it is allowed only as a statement or a for init/post\n1:48: error: -- used as a value: it is allowed only as a statement or a for init/post"},
	{"cond takes the branch's type", `float r; void main(void) { int c = 1; r = (c ? 1 : 2.0) / 2; }`, "r=0"},
	{"cond else branch", `float r; void main(void) { int c = 0; r = (c ? 1 : 2.0) / 4; }`, "r=0.5"},
	{"float function returning an int", `float r; float f(void) { return 1; } void main(void) { r = f() / 2; }`, "r=0"},
	{"int function returning a float", `int r; int g(void) { return 3.5; } void main(void) { r = g() % 2 + (g() + 0.5 > 3.9); }`, "r=2"},
	{"void call as a value", `int r; void v(void) { } void main(void) { r = 7; r = v(); }`, "r=0"},
	{"array element used as a scalar", `float r; float a[2] = {3.0, 4.0}; void main(void) { int c = 1; if (a[1]) { r = 9.0; } r = r + (c ? a[0] : 1.0) + 1; }`, "r=13"},
	{"array initializer from an array element", `int r; int a[2] = {5, 6}; int b[2] = {a[1], 2}; void main(void) { r = b[0] * 10 + b[1]; }`, "r=62"},
	{"array initializer list of calls", `int r; int k; int bump(void) { k = k + 1; return k; } void main(void) { int a[2] = {bump(), bump()}; r = a[0] * 10 + a[1] + k; }`, "r=14"},
	{"decl in a loop is fresh and zeroed", `int r; void main(void) { for (int i = 0; i < 3; i++) { int x; int a[2]; r = r + x + a[0]; x = 5; a[0] = 7; } }`, "r=0"},
	{"int ops go through AsInt", `int r; int h(void) { return 7.9; } void main(void) { r = (h() & 3) + (h() | 8) + (h() ^ 1) + (h() >> 1) + (h() << 1); }`, "r=41"},
	{"shifts mask with 63", `int r; void main(void) { r = (1 << 65) + (256 >> 66); }`, "r=66"},
	{"abs min max stay int", `float r; void main(void) { r = min(3, 7) / 2 + max(2, 5) / 2 + abs(-3) / 2; }`, "r=4"},
	{"abs min max on floats", `float r; void main(void) { r = min(3, 7.0) / 2 + abs(-3.0) / 2; }`, "r=3"},
	{"rhs before lhs indices", `int r; int a[3]; int first(void) { r = r * 10 + 1; return 0; } int second(void) { r = r * 10 + 2; return 5; } void main(void) { a[first()] = second(); }`, "r=21"},
	{"element compound assignment and incdec", `int r; int a[3]; void main(void) { a[1] += 2; a[2]++; --a[0]; r = a[0] + a[1] * 10 + a[2] * 100; }`, "r=119"},
	{"compound assignment converts", `int r; void main(void) { r = 5; r += 2.7; r *= 1.5; }`, "r=10"},
	{"assignment yields the stored value", `int r; void main(void) { float f; r = (f = 7) / 2; }`, "1:42: error: assignment used as a value: it is allowed only as a statement or a for init/post"},
	{"short circuit", `int r; void main(void) { int z = 0; r = (z && 1 / z) + (1 || 1 / z) * 2; }`, "r=2"},
	{"array params take dims from the argument", `int r; int rows(int m[][4]) { return m[2][3]; } void main(void) { int a[3][4]; a[2][3] = 6; r = rows(a); }`, "r=6"},
	{"row view argument", `int r; int s(int v[4]) { int t = 0; for (int i = 0; i < 4; i++) { t += v[i]; v[i] = i; } return t; } void main(void) { int m[2][4] = {{1, 2, 3, 4}, {5, 6, 7, 8}}; r = s(m[1]) * 100 + m[1][3]; }`, "r=2603"},
	{"recursion", `int r; int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } void main(void) { r = fib(12); }`, "r=144"},
	{"return inside loops", `int r; int find(int k) { int i = 0; while (1) { do { if (i == k) { return i * 2; } i++; } while (i % 3 != 0); } } void main(void) { r = find(7); }`, "r=14"},
	{"break and continue", `int r; void main(void) { for (int i = 0; ; i++) { if (i % 2) { continue; } else if (i > 8) { break; } else { r += i; } } }`, "r=20"},
	{"global initializer calls", `int k = 2; int sq(int x) { return x * x; } int r = sq(k) + 1; void main(void) { }`, "r=5"},
	{"casts", `float r; void main(void) { r = (float)(7 / 2) + (int)3.9 + (int)-2.5; }`, "r=4"},
	{"unary", `int r; void main(void) { float f = 2.5; r = -3 + !0 + !f + ~5 + (-f < 0); }`, "r=-7"},
	{"builtins", `float r; void main(void) { r = sqrt(16.0) + fabs(-2.0) + pow(2.0, 3.0) + floor(1.7) + ceil(0.2) + exp(0.0) + log(1.0) + sin(0.0) + cos(0.0) + tan(0.0) + atan(0.0) + atan2(0.0, 1.0); }`, "r=18"},

	{"integer division by zero", `int r; void main(void) { int z = 0; r = 1 / z; }`, "runtime error at 1:43: integer division by zero"},
	{"float division by zero", `float r; void main(void) { r = 1.0 / 0.0; }`, "runtime error at 1:36: floating division by zero"},
	{"compound division by zero", `int r; void main(void) { r = 4; r /= 0; }`, "runtime error at 1:35: integer division by zero"},
	{"modulo by zero", `int r; void main(void) { int z = 0; r = 1 % z; }`, "runtime error at 1:43: modulo by zero"},
	{"out of bounds", `int r; void main(void) { int a[3]; a[3] = 1; }`, "runtime error at 1:36: index 3 out of bounds [0,3) for a"},
	{"negative index", `int r; void main(void) { int a[3]; int i = -1; r = a[i]; }`, "runtime error at 1:52: index -1 out of bounds [0,3) for a"},
	{"second index out of bounds", `int r; int a[2][3]; void main(void) { r = a[1][3]; }`, "runtime error at 1:43: index 3 out of bounds [0,3) for a"},
	{"bounds text uses the argument's dims", `int r; void f(int v[]) { v[3] = 1; } void main(void) { int a[3]; f(a); }`, "runtime error at 1:26: index 3 out of bounds [0,3) for v"},
	{"row view out of bounds", `int r; int s(int v[4]) { return v[0]; } void main(void) { int m[2][4]; r = s(m[2]); }`, "runtime error at 1:78: row 2 out of bounds for m"},
	{"row view element out of bounds", `int r; int s(int v[4]) { return v[4]; } void main(void) { int m[2][4]; r = s(m[1]); }`, "runtime error at 1:33: index 4 out of bounds [0,4) for v"},
	{"partial indexing as a value", `int r; int m[2][2]; void main(void) { m[1]; }`, "runtime error at 1:39: partial indexing of m outside a call argument"},
	{"fell off the end", `int r; int f(void) { int x = 1; } void main(void) { r = f(); }`, "runtime error at 1:12: function f fell off the end without returning"},
	{"sqrt of a negative value", `float r; void main(void) { r = sqrt(-1.0); }`, "runtime error at 1:32: sqrt of negative value -1"},
	{"log of a non-positive value", `float r; void main(void) { r = log(0.0); }`, "runtime error at 1:32: log of non-positive value 0"},
	{"step limit", `int r; void main(void) { while (1) { r = r + 1; } }`, "runtime error at 1:26: step limit exceeded (infinite loop?)"},
	{"step limit in a for loop", `int r; void main(void) { for (;;) { } }`, "runtime error at 1:26: step limit exceeded (infinite loop?)"},
	{"global created later", `int g(void) { return h; } int r = g(); int h = 2; void main(void) { }`, "internal: storage for h#1:int not found"},
}

// outcomeText renders an outcome the way parityCases spell it.
func outcomeText(in *Interp, o outcome) string {
	switch {
	case o.panic != "":
		return "panic: " + o.panic
	case o.err != "":
		return o.err
	}
	r := in.GlobalValue("r")
	if r.Type.Base == minic.Float {
		return fmt.Sprintf("r=%g", r.F)
	}
	return fmt.Sprintf("r=%d", r.I)
}

// statementForms rewrites each parity case the checker rejects with the
// same updates made as statements, and the result that rewrite stores.
// TestParityCases runs the rewrite after pinning the rejection, and
// FuzzProfileParity seeds it in place of the rejected program.
var statementForms = map[string]struct{ src, want string }{
	"incdec yields the new value":        {`int r; void main(void) { int i = 3; i++; r = i; }`, "r=4"},
	"predec yields the new value":        {`int r; void main(void) { int i = 3; --i; r = i; i--; r += i; }`, "r=3"},
	"assignment yields the stored value": {`int r; void main(void) { float f; f = 7; r = f / 2; }`, "r=3"},
}

// seedSource is the program FuzzProfileParity seeds for a parity case.
func seedSource(name, src string) string {
	if sf, ok := statementForms[name]; ok {
		return sf.src
	}
	return src
}

func TestParityCases(t *testing.T) {
	for _, tc := range parityCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := minic.Compile(tc.src)
			if err != nil {
				if err.Error() != tc.want {
					t.Fatalf("compile: got %q, want %q", err, tc.want)
				}
				sf, ok := statementForms[tc.name]
				if !ok {
					return
				}
				if prog, err = minic.Compile(sf.src); err != nil {
					t.Fatalf("statement form: compile: %v", err)
				}
				checkParityCase(t, prog, sf.want)
				return
			}
			checkParityCase(t, prog, tc.want)
		})
	}
}

// checkParityCase runs prog on both evaluators, with and without
// footprints, and compares the executor's outcome with want.
func checkParityCase(t *testing.T, prog *minic.Program, want string) {
	t.Helper()
	for _, fp := range []bool{false, true} {
		ref, got := runBoth(prog, 2000, fp)
		if d := diffOutcomes(ref, got); d != "" {
			t.Fatalf("footprints=%v: %s", fp, d)
		}
	}
	in := New(prog)
	in.StepLimit = 2000
	if got := outcomeText(in, observe(prog, in)); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// maxFuzzElems bounds the array storage a fuzzed program may declare, so
// each input stays fast: the checker's own bound admits up to 1<<20
// elements, which both evaluators allocate in full.
const maxFuzzElems = 1 << 16

func declaresHugeArray(prog *minic.Program) bool {
	total := 0
	huge := func(t minic.Type) bool {
		n := 1
		for _, d := range t.Dims {
			if d > maxFuzzElems {
				return true
			}
			n *= d
		}
		total += n
		return n > maxFuzzElems || total > maxFuzzElems
	}
	for _, g := range prog.Globals {
		if huge(g.Type) {
			return true
		}
	}
	var stmtHuge func(s minic.Stmt) bool
	stmtHuge = func(s minic.Stmt) bool {
		switch st := s.(type) {
		case *minic.DeclStmt:
			return huge(st.Type)
		case *minic.BlockStmt:
			for _, x := range st.Stmts {
				if stmtHuge(x) {
					return true
				}
			}
		case *minic.IfStmt:
			return stmtHuge(st.Then) || (st.Else != nil && stmtHuge(st.Else))
		case *minic.ForStmt:
			return (st.Init != nil && stmtHuge(st.Init)) || stmtHuge(st.Body)
		case *minic.WhileStmt:
			return stmtHuge(st.Body)
		}
		return false
	}
	for _, f := range prog.Funcs {
		if stmtHuge(f.Body) {
			return true
		}
	}
	return false
}

// FuzzProfileParity compiles raw source bytes and requires both evaluators
// to agree on everything, errors and panics included. The seed corpus is
// the benchmark programs and the parity cases; plain `go test` replays it.
func FuzzProfileParity(f *testing.F) {
	for _, b := range bench.All() {
		f.Add([]byte(b.Source))
	}
	for _, tc := range parityCases {
		f.Add([]byte(seedSource(tc.name, tc.src)))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		prog, err := minic.Compile(string(src))
		if err != nil || declaresHugeArray(prog) {
			t.Skip()
		}
		want, got := runBoth(prog, 1e5, false)
		if d := diffOutcomes(want, got); d != "" {
			t.Fatal(d)
		}
	})
}

// BenchmarkProfile profiles every benchmark program with the executor and
// with the reference evaluator.
func BenchmarkProfile(b *testing.B) {
	for _, bm := range bench.All() {
		prog, err := minic.Compile(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(prog).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("reference/"+bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := newRef(prog).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
