package interp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/minic"
)

func run(t *testing.T, src string) (*Interp, *Profile) {
	t.Helper()
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	in := New(prog)
	prof, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return in, prof
}

func runErr(t *testing.T, src string) error {
	t.Helper()
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	in := New(prog)
	in.StepLimit = 1 << 20
	_, err = in.Run()
	if err == nil {
		t.Fatalf("expected runtime error")
	}
	return err
}

func TestArithmeticAndGlobals(t *testing.T) {
	in, _ := run(t, `
int r1; int r2; float r3;
void main(void) {
    r1 = 7 / 2 + 7 % 2;          // 3 + 1 = 4
    r2 = (1 << 4) | 3 & 1;       // 16 | 1 = 17
    r3 = 1.5 * 4.0 - 1.0 / 2.0;  // 6 - 0.5 = 5.5
}
`)
	if got := in.GlobalValue("r1").AsInt(); got != 4 {
		t.Errorf("r1 = %d, want 4", got)
	}
	if got := in.GlobalValue("r2").AsInt(); got != 17 {
		t.Errorf("r2 = %d, want 17", got)
	}
	if got := in.GlobalValue("r3").AsFloat(); got != 5.5 {
		t.Errorf("r3 = %g, want 5.5", got)
	}
}

func TestLoopsAndCounts(t *testing.T) {
	prog, err := minic.Compile(`
int acc;
void main(void) {
    for (int i = 0; i < 10; i++) {
        acc += i;
    }
    int j = 0;
    while (j < 5) { j++; }
    do { j--; } while (j > 0);
}
`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	in := New(prog)
	prof, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := in.GlobalValue("acc").AsInt(); got != 45 {
		t.Errorf("acc = %d, want 45", got)
	}
	main := prog.Func("main")
	forStmt := main.Body.Stmts[0].(*minic.ForStmt)
	body := forStmt.Body.Stmts[0]
	if c := prof.Count(body); c != 10 {
		t.Errorf("for body count = %d, want 10", c)
	}
	if c := prof.Count(forStmt); c != 1 {
		t.Errorf("for statement count = %d, want 1", c)
	}
}

func TestFunctionsAndArrays(t *testing.T) {
	in, _ := run(t, `
float out;
float dot(float a[4], float b[4]) {
    float s = 0.0;
    for (int i = 0; i < 4; i++) { s += a[i] * b[i]; }
    return s;
}
void fill(float v[4], float start) {
    for (int i = 0; i < 4; i++) { v[i] = start + i; }
}
void main(void) {
    float a[4]; float b[4];
    fill(a, 1.0);
    fill(b, 2.0);
    out = dot(a, b);  // 1*2+2*3+3*4+4*5 = 40
}
`)
	if got := in.GlobalValue("out").AsFloat(); got != 40 {
		t.Errorf("out = %g, want 40", got)
	}
}

func TestArrayByReference(t *testing.T) {
	in, _ := run(t, `
int result;
void bump(int v[3]) { for (int i = 0; i < 3; i++) { v[i] = v[i] + 1; } }
void main(void) {
    int a[3] = {10, 20, 30};
    bump(a);
    result = a[0] + a[1] + a[2];
}
`)
	if got := in.GlobalValue("result").AsInt(); got != 63 {
		t.Errorf("result = %d, want 63", got)
	}
}

func TestRowViewArgument(t *testing.T) {
	in, _ := run(t, `
float total;
float rowsum(float r[4]) {
    float s = 0.0;
    for (int i = 0; i < 4; i++) { s += r[i]; }
    return s;
}
void main(void) {
    float m[2][4] = {{1.0, 2.0, 3.0, 4.0}, {5.0, 6.0, 7.0, 8.0}};
    total = rowsum(m[1]);
}
`)
	if got := in.GlobalValue("total").AsFloat(); got != 26 {
		t.Errorf("total = %g, want 26", got)
	}
}

func TestBuiltins(t *testing.T) {
	in, _ := run(t, `
float a; float b; int c; float d;
void main(void) {
    a = sqrt(16.0) + fabs(-2.0);
    b = pow(2.0, 10.0);
    c = max(3, min(10, 7)) + abs(-4);
    d = cos(0.0) + floor(1.7) + ceil(0.2);
}
`)
	if got := in.GlobalValue("a").AsFloat(); got != 6 {
		t.Errorf("a = %g, want 6", got)
	}
	if got := in.GlobalValue("b").AsFloat(); got != 1024 {
		t.Errorf("b = %g, want 1024", got)
	}
	if got := in.GlobalValue("c").AsInt(); got != 11 {
		t.Errorf("c = %d, want 11", got)
	}
	if got := in.GlobalValue("d").AsFloat(); got != 3 {
		t.Errorf("d = %g, want 3", got)
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand of && must not evaluate when the left is false:
	// division by zero would fail otherwise.
	in, _ := run(t, `
int ok;
void main(void) {
    int z = 0;
    if (z != 0 && 10 / z > 1) { ok = 0; } else { ok = 1; }
    if (z == 0 || 10 / z > 1) { ok = ok + 1; }
}
`)
	if got := in.GlobalValue("ok").AsInt(); got != 2 {
		t.Errorf("ok = %d, want 2", got)
	}
}

func TestControlFlow(t *testing.T) {
	in, _ := run(t, `
int n;
void main(void) {
    for (int i = 0; i < 100; i++) {
        if (i == 5) { break; }
        if (i % 2 == 0) { continue; }
        n += i;   // 1 + 3 = 4
    }
    n += pick(2); // + 20
}
int pick(int k) {
    if (k == 1) { return 10; }
    if (k == 2) { return 20; }
    return 0;
}
`)
	if got := in.GlobalValue("n").AsInt(); got != 24 {
		t.Errorf("n = %d, want 24", got)
	}
}

func TestTernaryCastIncDec(t *testing.T) {
	// ++ and -- are statements in mini-C: the checker rejects them as
	// values, so no evaluator ever has to pick which value they yield.
	_, err := minic.Compile(`
int a;
void main(void) {
    int x = 5;
    a = x > 3 ? x++ : --x;
}
`)
	want := "5:18: error: ++ used as a value: it is allowed only as a statement or a for init/post\n" +
		"5:23: error: -- used as a value: it is allowed only as a statement or a for init/post"
	if err == nil || err.Error() != want {
		t.Errorf("compile error = %v, want %q", err, want)
	}
	in, _ := run(t, `
int a; float f;
void main(void) {
    int x = 5;
    a = x > 3 ? x + 1 : x - 1;  // a = 6
    x++;
    --x;
    f = (float)(7 / 2) + 0.5;
    a = a + (int)3.9 + x;       // 6 + 3 + 5
}
`)
	if got := in.GlobalValue("a").AsInt(); got != 14 {
		t.Errorf("a = %d, want 14", got)
	}
	if got := in.GlobalValue("f").AsFloat(); got != 3.5 {
		t.Errorf("f = %g, want 3.5", got)
	}
}

func TestCompoundAssignments(t *testing.T) {
	in, _ := run(t, `
int a;
void main(void) {
    a = 100;
    a += 10; a -= 5; a *= 2; a /= 3; a %= 50;  // ((105*2)/3)%50 = 70%50 = 20
    a <<= 2; a >>= 1; a |= 8; a &= 63; a ^= 1; // 40|8=40? 20<<2=80 >>1=40 |8=40 and 63=40 ^1=41
}
`)
	if got := in.GlobalValue("a").AsInt(); got != 41 {
		t.Errorf("a = %d, want 41", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"div0", `void main(void) { int x = 1 / 0; }`, "division by zero"},
		{"mod0", `void main(void) { int x = 1 % 0; }`, "modulo by zero"},
		{"fdiv0", `void main(void) { float x = 1.0 / 0.0; }`, "division by zero"},
		{"oob", `void main(void) { int a[3]; a[3] = 1; }`, "out of bounds"},
		{"oob neg", `void main(void) { int a[3]; int i = -1; a[i] = 1; }`, "out of bounds"},
		{"sqrt neg", `void main(void) { float x = sqrt(-1.0); }`, "sqrt of negative"},
		{"log nonpos", `void main(void) { float x = log(0.0); }`, "log of non-positive"},
		{"no return", `int f(void) { int x = 1; } void main(void) { int y = f(); }`, "fell off the end"},
		{"infinite", `void main(void) { while (1) { int x = 0; } }`, "step limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runErr(t, tc.src)
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestChecksumOrderSensitivity(t *testing.T) {
	sum := func(src string) float64 {
		in, _ := run(t, src)
		return in.GlobalChecksum()
	}
	a := sum(`int a[3]; void main(void) { a[0] = 1; a[1] = 2; a[2] = 3; }`)
	b := sum(`int a[3]; void main(void) { a[0] = 3; a[1] = 2; a[2] = 1; }`)
	if a == b {
		t.Errorf("checksum insensitive to element order: %g == %g", a, b)
	}
}

func TestRunIsRepeatable(t *testing.T) {
	prog, err := minic.Compile(`
float acc;
void main(void) { acc = acc + 1.0; for (int i = 0; i < 3; i++) { acc *= 2.0; } }
`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	in := New(prog)
	if _, err := in.Run(); err != nil {
		t.Fatalf("run 1: %v", err)
	}
	c1 := in.GlobalChecksum()
	if _, err := in.Run(); err != nil {
		t.Fatalf("run 2: %v", err)
	}
	c2 := in.GlobalChecksum()
	if c1 != c2 || math.IsNaN(c1) {
		t.Errorf("Run not repeatable: %g vs %g", c1, c2)
	}
}

func TestGlobalInitializers(t *testing.T) {
	in, _ := run(t, `
int n = 4;
float w[4] = {0.5, 1.5, 2.5, 3.5};
float s;
void main(void) {
    for (int i = 0; i < n; i++) { s += w[i]; }
}
`)
	if got := in.GlobalValue("s").AsFloat(); got != 8 {
		t.Errorf("s = %g, want 8", got)
	}
}
