package minic

import (
	"runtime"
	"strings"
	"testing"
)

const tinyProg = `
#define N 8
int data[N];
float scale = 2.5;

int sum(int a[], int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += a[i];
    }
    return s;
}

void main(void) {
    for (int i = 0; i < N; i++) {
        data[i] = i * i;
    }
    int total = sum(data, N);
    if (total > 100) {
        total = total - 100;
    } else {
        total = 0;
    }
}
`

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("a += b1 * 3.5e2; /* c */ x <<= 2 // y")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	want := []TokenKind{TokIdent, TokPlusEq, TokIdent, TokStar, TokFloatLit,
		TokSemi, TokIdent, TokShlEq, TokIntLit, TokEOF}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexDefineExpansion(t *testing.T) {
	toks, err := Lex("#define SIZE 16\n#define HALF (SIZE / 2)\nint a[SIZE]; x = HALF;")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "16") {
		t.Errorf("SIZE not expanded: %s", joined)
	}
	// HALF expands to ( SIZE / 2 ) and SIZE inside was already substituted
	// at definition-lex time? No: HALF's body references SIZE textually and
	// was lexed with a fresh lexer, so SIZE remains an identifier there.
	// Nested expansion is not required by the benchmarks; assert HALF
	// expanded at all.
	if strings.Contains(joined, "HALF") {
		t.Errorf("HALF not expanded: %s", joined)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		"/* unterminated",
		"#include <stdio.h>",
		"#define F(x) x",
		"\"unterminated",
		"'a",
		"@",
		"1.5e",
	}
	for _, src := range cases {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q): expected error", src)
		}
	}
}

func TestLexCharAndHex(t *testing.T) {
	toks, err := Lex("'A' 0x1F '\\n'")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Kind != TokCharLit || toks[0].Text != "65" {
		t.Errorf("char literal: got %v", toks[0])
	}
	if toks[1].Kind != TokIntLit || toks[1].Text != "0x1F" {
		t.Errorf("hex literal: got %v", toks[1])
	}
	if toks[2].Text != "10" {
		t.Errorf("escaped newline: got %v", toks[2])
	}
}

func TestParseAndCheckTiny(t *testing.T) {
	prog := mustCompile(t, tinyProg)
	if len(prog.Funcs) != 2 {
		t.Fatalf("want 2 functions, got %d", len(prog.Funcs))
	}
	if prog.Func("main") == nil || prog.Func("sum") == nil {
		t.Fatalf("missing functions: %+v", prog.Funcs)
	}
	if len(prog.Globals) != 2 {
		t.Fatalf("want 2 globals, got %d", len(prog.Globals))
	}
	if got := prog.Globals[0].Type.String(); got != "int[8]" {
		t.Errorf("data type: got %s, want int[8]", got)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	srcs := []string{
		tinyProg,
		`void main(void) { int i = 0; do { i++; } while (i < 3); while (i > 0) { i--; } }`,
		`int f(int x) { return x > 0 ? x : -x; }
		 void main(void) { int y = f(-3) + (1 << 4) % 7 & 3 | 12 ^ 5; y = !y + ~y; }`,
		`void main(void) { float m[2][3] = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
		  m[1][2] = m[0][1] * 2.0; }`,
		`void main(void) { int a = 1, b = 2, c; c = a + b; if (c == 3) { c = 0; } else if (c > 3) { c = 1; } else { c = 2; } }`,
		`float g(float v[4]) { float s = 0.0; for (int i = 0; i < 4; i++) { s += v[i]; } return s; }
		 void main(void) { float v[4] = {1.0, 2.0, 3.0, 4.0}; float r = g(v); r = (float)1 + (int)r; }`,
	}
	for i, src := range srcs {
		p1, err := Compile(src)
		if err != nil {
			t.Fatalf("case %d: compile original: %v", i, err)
		}
		out1 := PrintProgram(p1)
		p2, err := Compile(out1)
		if err != nil {
			t.Fatalf("case %d: compile printed form: %v\n%s", i, err, out1)
		}
		out2 := PrintProgram(p2)
		if out1 != out2 {
			t.Errorf("case %d: print not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", i, out1, out2)
		}
	}
}

func TestCheckerErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined var", `void main(void) { x = 1; }`, "undefined variable"},
		{"redeclared", `void main(void) { int a; int a; }`, "redeclared"},
		{"undefined func", `void main(void) { f(1); }`, "undefined function"},
		{"arity", `int f(int a) { return a; } void main(void) { f(1, 2); }`, "expects 1 argument"},
		{"break outside", `void main(void) { break; }`, "break outside"},
		{"continue outside", `void main(void) { continue; }`, "continue outside"},
		{"void return value", `void main(void) { return 3; }`, "cannot return a value"},
		{"missing return value", `int f(void) { return; } void main(void) { }`, "must return"},
		{"not array", `void main(void) { int a; a[0] = 1; }`, "not an array"},
		{"mod float", `void main(void) { float f = 1.0; int x = 3 % f; }`, "requires int"},
		{"too many indices", `void main(void) { int a[3]; a[0][1] = 2; }`, "too many indices"},
		{"assign array", `void main(void) { int a[3]; int b[3]; a = b; }`, "cannot assign"},
		{"dup function", `void f(void) {} void f(void) {} void main(void) {}`, "redefined"},
		{"shadow builtin", `float sqrt(float x) { return x; } void main(void) {}`, "shadows a builtin"},
		{"builtin arity", `void main(void) { float x = sqrt(1.0, 2.0); }`, "expects 1 argument"},
		{"array extent", `void f(int a[4]) {} void main(void) { int b[5]; f(b); }`, "extent mismatch"},
		{"main with parameters", `int r; void main(int x) { r = 1; }`, "1:13: error: main must take no parameters"},
		{"scalar with a brace initializer", `int r; void main(void) { int x = {1}; r = x; }`, "1:30: error: scalar x cannot take a brace initializer"},
		{"global scalar with a brace initializer", `int x = {1}; void main(void) { }`, "1:5: error: scalar x cannot take a brace initializer"},
		{"array past the element bound", `void main(void) { float a[1025][1024]; }`, "1:25: error: array a of type float[1025][1024] holds more than 1048576 elements"},
		{"arrays past the program bound", `int a[1024][512]; void main(void) { int b[512][1025]; }`, "1:41: error: array b takes the program's arrays past 1048576 elements"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

// TestHugeArrayRejectedWithoutAllocation checks that the storage bound
// is enforced from the declared dimensions alone: a declaration of 10^10
// elements is rejected before anything of that size is allocated.
func TestHugeArrayRejectedWithoutAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Compile(`int a[100000][100000]; void main(void) { a[0][0] = 1; }`)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "1:5: error: array a of type int[100000][100000] holds more than") {
		t.Fatalf("got %v, want a positioned size error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("compiling allocated %d bytes", grew)
	}
}

// TestArrayBoundAdmitsLimit checks that storage exactly at the bound is
// accepted.
func TestArrayBoundAdmitsLimit(t *testing.T) {
	if _, err := Compile(`int a[1024][512]; void main(void) { float b[512][1024]; }`); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolResolution(t *testing.T) {
	prog := mustCompile(t, `
int g;
void main(void) {
    int g;
    g = 1;
    for (int g = 0; g < 2; g++) { int h = g; h = h; }
}
`)
	main := prog.Func("main")
	// The assignment g = 1 must resolve to the local, not the global.
	es := main.Body.Stmts[1].(*ExprStmt)
	asn := es.X.(*AssignExpr)
	vr := asn.LHS.(*VarRef)
	if vr.Sym == nil || vr.Sym.Kind != SymLocal {
		t.Fatalf("g resolved to %v, want local", vr.Sym)
	}
	if prog.Globals[0].Sym == nil || prog.Globals[0].Sym.Kind != SymGlobal {
		t.Fatalf("global g symbol missing")
	}
}

func TestUnsizedParamDim(t *testing.T) {
	mustCompile(t, `
float total(float a[][4], int rows) {
    float s = 0.0;
    for (int i = 0; i < rows; i++) {
        for (int j = 0; j < 4; j++) { s += a[i][j]; }
    }
    return s;
}
void main(void) {
    float m[3][4];
    float s = total(m, 3);
}
`)
}

func TestTypePredicates(t *testing.T) {
	scalar := ScalarType(Float)
	if !scalar.IsScalar() || scalar.IsArray() {
		t.Errorf("scalar predicates wrong")
	}
	arr := Type{Base: Int, Dims: []int{4, 5}}
	if arr.NumElems() != 20 || arr.SizeBytes() != 80 {
		t.Errorf("array size: elems=%d bytes=%d", arr.NumElems(), arr.SizeBytes())
	}
	if arr.String() != "int[4][5]" {
		t.Errorf("array String: %s", arr.String())
	}
	if !arr.Equal(Type{Base: Int, Dims: []int{4, 5}}) || arr.Equal(scalar) {
		t.Errorf("Equal wrong")
	}
}

func TestTernaryAndPrecedence(t *testing.T) {
	prog := mustCompile(t, `void main(void) { int x = 1 + 2 * 3; int y = x > 4 ? x - 4 : 4 - x; }`)
	main := prog.Func("main")
	d := main.Body.Stmts[0].(*DeclStmt)
	bin := d.Init.(*BinaryExpr)
	if bin.Op != TokPlus {
		t.Fatalf("top of 1+2*3 should be +, got %s", bin.Op)
	}
	if inner, ok := bin.Y.(*BinaryExpr); !ok || inner.Op != TokStar {
		t.Fatalf("rhs of + should be *")
	}
}
