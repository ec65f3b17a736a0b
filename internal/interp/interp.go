// Package interp is a reference interpreter for checked mini-C programs.
//
// It serves three purposes in the parallelization tool flow:
//
//  1. Profiling: it counts how often every statement executes, supplying the
//     iteration counts the Augmented Hierarchical Task Graph is annotated
//     with (the paper extracts these "by target platform simulation").
//  2. Validation: benchmark programs carry golden output checksums; the test
//     suite verifies the interpreter reproduces them, and that replaying an
//     extracted parallel schedule leaves the semantics unchanged.
//  3. Workload generation: benchmark inputs are initialized by mini-C code
//     itself, so no external data files are needed.
//
// The first Run of an Interp resolves the program once: every variable gets
// a slot in its function's frame (or in the globals frame), every counted
// statement and every function a dense index, and every statement and
// expression becomes a Go closure over the frame. Execution then works on a
// slim scalar (val) and array views (arr); counts go to dense slices and are
// copied into the public Profile maps when the run ends.
package interp

import (
	"fmt"
	"math"

	"repro/internal/minic"
)

// Value is a runtime value: a scalar or an array reference. Arrays are
// passed by reference, matching C semantics for array parameters.
type Value struct {
	Type minic.Type
	// I holds int scalars, F float scalars.
	I int64
	F float64
	// Arr backs float arrays, IntArr int arrays. Exactly one is non-nil for
	// array values.
	Arr    []float64
	IntArr []int64
	// Root identifies the variable that owns the backing store: the
	// declaring symbol for globals and locals, propagated unchanged through
	// parameter binding so footprints attribute callee accesses to the
	// caller's array. RootOff is the flat element offset of this view into
	// the root's store (nonzero for row views).
	Root    *minic.Symbol
	RootOff int
}

func (v Value) isFloat() bool { return v.Type.Base == minic.Float }

// AsFloat returns the scalar as float64 (converting ints).
func (v Value) AsFloat() float64 {
	if v.isFloat() {
		return v.F
	}
	return float64(v.I)
}

// AsInt returns the scalar as int64 (truncating floats, as C does).
func (v Value) AsInt() int64 {
	if v.isFloat() {
		return int64(v.F)
	}
	return v.I
}

// RuntimeError is an error raised during interpretation (e.g. out-of-bounds
// access or division by zero), with the source position of the offending
// expression.
type RuntimeError struct {
	Pos minic.Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg) }

func rterrf(pos minic.Pos, format string, args ...any) *RuntimeError {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Profile records dynamic execution counts.
type Profile struct {
	// StmtCount maps each executed statement node to the number of times it
	// ran. Keys are AST node identities.
	StmtCount map[minic.Stmt]int64
	// FuncCount maps each function to its number of invocations.
	FuncCount map[*minic.FuncDecl]int64
	// OpCount is the total number of evaluated expression operations, a
	// coarse work measure used in tests.
	OpCount int64
	// Footprints maps each executed statement to the concrete array
	// elements it touched, including accesses made by functions it called.
	// Only populated when Interp.RecordFootprints is set.
	Footprints map[minic.Stmt]*Footprint
}

// Footprint is the concrete memory footprint of one statement: for every
// array (identified by its root symbol — the declaring global or local, not
// a parameter alias) the set of flat element offsets read and written while
// the statement was on the execution stack.
type Footprint struct {
	Reads  map[*minic.Symbol]map[int]struct{}
	Writes map[*minic.Symbol]map[int]struct{}
}

func newFootprint() *Footprint {
	return &Footprint{
		Reads:  make(map[*minic.Symbol]map[int]struct{}),
		Writes: make(map[*minic.Symbol]map[int]struct{}),
	}
}

func addElem(m map[*minic.Symbol]map[int]struct{}, sym *minic.Symbol, off int) {
	s, ok := m[sym]
	if !ok {
		s = make(map[int]struct{})
		m[sym] = s
	}
	s[off] = struct{}{}
}

// Count returns the execution count of s (0 if never executed).
func (p *Profile) Count(s minic.Stmt) int64 { return p.StmtCount[s] }

// Interp executes a checked program.
type Interp struct {
	prog *minic.Program
	// StepLimit aborts runaway programs (0 = no limit).
	StepLimit int64
	// RecordFootprints enables per-statement concrete footprint capture
	// (Profile.Footprints). Off by default: it adds a map insert per array
	// element access per active statement.
	RecordFootprints bool

	code *code // the resolved program, built by the first Run

	// globals holds the globals' scalar and array slots, both indexed by
	// declaration order. Run creates them one at a time; only the first
	// nGlob exist.
	globals frame
	nGlob   int

	steps, limit int64
	ops          int64
	stmtN        []int64      // per statement index
	funcN        []int64      // per function index
	fps          []*Footprint // per statement index; nil unless recording
	stack        []int32      // statements executing, while recording
}

// New creates an interpreter for prog. The program must have been checked
// (Compile or Check).
func New(prog *minic.Program) *Interp {
	return &Interp{prog: prog, StepLimit: 1 << 32}
}

// val is the executor's scalar. Only the field selected by isF is
// meaningful; an array used where a scalar is expected reads as the zero of
// its base type.
type val struct {
	i   int64
	f   float64
	isF bool
}

func ival(i int64) val   { return val{i: i} }
func fval(f float64) val { return val{f: f, isF: true} }

func bval(b bool) val {
	if b {
		return val{i: 1}
	}
	return val{}
}

func (v val) asFloat() float64 {
	if v.isF {
		return v.f
	}
	return float64(v.i)
}

func (v val) asInt() int64 {
	if v.isF {
		return int64(v.f)
	}
	return v.i
}

func (v val) truthy() bool {
	if v.isF {
		return v.f != 0
	}
	return v.i != 0
}

// arr is an array view: the backing store (i for int arrays, f for float
// arrays), the view's dimensions, and the declaring root symbol with the
// view's flat offset into the root's store.
type arr struct {
	f    []float64
	i    []int64
	dims []int
	root *minic.Symbol
	off  int
}

func newArr(t minic.Type, root *minic.Symbol) arr {
	a := arr{dims: t.Dims, root: root}
	if t.Base == minic.Int {
		a.i = make([]int64, t.NumElems())
	} else {
		a.f = make([]float64, t.NumElems())
	}
	return a
}

func (a *arr) load(off int) val {
	if a.i != nil {
		return ival(a.i[off])
	}
	return fval(a.f[off])
}

func (a *arr) store(off int, x val) {
	if a.i != nil {
		a.i[off] = x.asInt()
	} else {
		a.f[off] = x.asFloat()
	}
}

// frame is one function activation: scalar and array slots, and the
// return value.
type frame struct {
	s      []val
	a      []arr
	ret    val
	hasRet bool
}

// ctl models non-sequential control flow during execution.
type ctl uint8

const (
	ctlNone ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

type (
	exprFn func(*frame) val
	stmtFn func(*frame) ctl
)

// abort carries a runtime error from the point of failure to Run.
type abort struct{ err error }

func fail(err error) { panic(abort{err}) }

// Run executes main() and returns the profile. Globals are (re)initialized
// first, so Run is repeatable.
func (in *Interp) Run() (prof *Profile, err error) {
	if in.prog.Func("main") == nil {
		return nil, fmt.Errorf("program has no main function")
	}
	if in.code == nil {
		in.code = resolve(in)
	}
	c := in.code
	in.limit = math.MaxInt64
	if in.StepLimit > 0 {
		in.limit = in.StepLimit
	}
	in.steps, in.ops = 0, 0
	in.stmtN = make([]int64, len(c.stmts))
	in.funcN = make([]int64, len(c.funcs))
	in.fps = nil
	if in.RecordFootprints {
		in.fps = make([]*Footprint, len(c.stmts))
	}
	in.stack = in.stack[:0]
	n := len(in.prog.Globals)
	in.globals, in.nGlob = frame{s: make([]val, n), a: make([]arr, n)}, 0
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(abort)
			if !ok {
				panic(r)
			}
			prof, err = nil, a.err
		}
	}()
	for _, g := range c.globals {
		g()
	}
	fr := newFrame(c.main)
	if len(c.main.params) > 0 {
		var args []val
		_ = args[0] // main gets no arguments: binding one panics, as in the tree-walker
	}
	in.invoke(c.main, fr)
	return in.profile(), nil
}

// profile copies the dense counters into the public maps, leaving out
// statements and functions that never ran.
func (in *Interp) profile() *Profile {
	c := in.code
	p := &Profile{
		StmtCount: make(map[minic.Stmt]int64),
		FuncCount: make(map[*minic.FuncDecl]int64),
		OpCount:   in.ops,
	}
	for id, n := range in.stmtN {
		if n != 0 {
			p.StmtCount[c.stmts[id]] = n
		}
	}
	for i, n := range in.funcN {
		if n != 0 {
			p.FuncCount[c.funcs[i].decl] = n
		}
	}
	if in.fps != nil {
		p.Footprints = make(map[minic.Stmt]*Footprint)
		for id, fp := range in.fps {
			if fp != nil {
				p.Footprints[c.stmts[id]] = fp
			}
		}
	}
	return p
}

// GlobalChecksum folds every global variable's contents into a single
// float64, used as a golden output fingerprint for benchmark validation.
func (in *Interp) GlobalChecksum() float64 {
	sum := 0.0
	k := 1.0
	for gi, g := range in.prog.Globals[:in.nGlob] {
		a := &in.globals.a[gi]
		switch {
		case !g.Type.IsArray():
			sum += k * in.globals.s[gi].asFloat()
			k = nextK(k)
		case a.i != nil:
			for _, x := range a.i {
				sum += k * float64(x)
				k = nextK(k)
			}
		default:
			for _, x := range a.f {
				sum += k * x
				k = nextK(k)
			}
		}
	}
	return sum
}

// GlobalValue returns the current value of the named global variable after
// a Run, or the zero Value if no such global exists.
func (in *Interp) GlobalValue(name string) Value {
	for gi, g := range in.prog.Globals[:in.nGlob] {
		if g.Name != name {
			continue
		}
		v := Value{Type: g.Type, Root: g.Sym}
		if g.Type.IsArray() {
			v.Arr, v.IntArr = in.globals.a[gi].f, in.globals.a[gi].i
		} else if s := in.globals.s[gi]; s.isF {
			v.F = s.f
		} else {
			v.I = s.i
		}
		return v
	}
	return Value{}
}

// nextK advances the position-dependent multiplier so that permuting the
// global contents changes the checksum; it cycles to avoid overflow.
func nextK(k float64) float64 {
	k *= 1.0009765625 // 1 + 2^-10, exactly representable
	if k > 1e6 {
		k = 1.0
	}
	return k
}

func newFrame(fc *fnCode) *frame {
	return &frame{s: make([]val, fc.ns), a: make([]arr, fc.na)}
}

// invoke runs fc in its frame fr, with the parameters bound.
func (in *Interp) invoke(fc *fnCode, fr *frame) val {
	in.funcN[fc.idx]++
	fc.body(fr)
	if fc.decl.Result.Base != minic.Void && !fr.hasRet {
		fail(rterrf(fc.decl.Pos, "function %s fell off the end without returning", fc.decl.Name))
	}
	return fr.ret
}

func (in *Interp) tick(pos minic.Pos) {
	in.steps++
	if in.steps > in.limit {
		fail(rterrf(pos, "step limit exceeded (infinite loop?)"))
	}
}

// scalar and array return the storage of a resolved variable.
func (in *Interp) scalar(fr *frame, s *slot) *val {
	if !s.global {
		return &fr.s[s.k]
	}
	in.mustExist(s)
	return &in.globals.s[s.k]
}

func (in *Interp) array(fr *frame, s *slot) *arr {
	if !s.global {
		return &fr.a[s.k]
	}
	in.mustExist(s)
	return &in.globals.a[s.k]
}

// mustExist fails on a global that Run has not created yet, which only a
// function called from an earlier global's initializer can reach.
func (in *Interp) mustExist(s *slot) {
	if s.k >= in.nGlob {
		fail(fmt.Errorf("internal: storage for %s not found", s.sym))
	}
}

// record attributes one element access on av (at flat offset off within
// the view) to every statement currently executing.
func (in *Interp) record(av *arr, off int, write bool) {
	if in.fps != nil {
		in.recordAll(av, off, write)
	}
}

func (in *Interp) recordAll(av *arr, off int, write bool) {
	idx := av.off + off
	for _, id := range in.stack {
		fp := in.fps[id]
		if fp == nil {
			fp = newFootprint()
			in.fps[id] = fp
		}
		if write {
			addElem(fp.Writes, av.root, idx)
		} else {
			addElem(fp.Reads, av.root, idx)
		}
	}
}

// fill stores an initializer list into av. A global's writes are recorded
// too, but outside every statement, so they land in no footprint.
func (in *Interp) fill(fr *frame, av *arr, list []exprFn) {
	for j, e := range list {
		x := e(fr)
		in.record(av, j, true)
		av.store(j, x)
	}
}

// site names an array access for error messages.
type site struct {
	pos  minic.Pos
	name string
}

// offset evaluates the indices of an element access on av, bounds-checking
// each before the next is evaluated, and returns the flat element offset.
func (in *Interp) offset(fr *frame, av *arr, idx []exprFn, at *site) int {
	dims := av.dims
	if len(idx) != len(dims) {
		fail(rterrf(at.pos, "partial array indexing of %s used as a value", at.name))
	}
	off := 0
	for d, ie := range idx {
		i := int(ie(fr).asInt())
		extent := dims[d]
		if extent == 0 {
			// Unsized parameter dim: bound by backing store later.
			extent = 1 << 30
		}
		if i < 0 || i >= extent {
			fail(rterrf(at.pos, "index %d out of bounds [0,%d) for %s", i, dims[d], at.name))
		}
		off = off*dims[d] + i // row-major, Horner form
	}
	if n := len(av.f) + len(av.i); off >= n {
		fail(rterrf(at.pos, "flattened index %d out of bounds (size %d) for %s", off, n, at.name))
	}
	return off
}

// arith applies a non-short-circuit binary operator: it serves binary
// expressions, compound assignment and ++/--.
func arith(pos minic.Pos, op minic.TokenKind, x, y val) val {
	isF := x.isF || y.isF
	switch op {
	case minic.TokPlus:
		if isF {
			return fval(x.asFloat() + y.asFloat())
		}
		return ival(x.i + y.i)
	case minic.TokMinus:
		if isF {
			return fval(x.asFloat() - y.asFloat())
		}
		return ival(x.i - y.i)
	case minic.TokStar:
		if isF {
			return fval(x.asFloat() * y.asFloat())
		}
		return ival(x.i * y.i)
	case minic.TokSlash:
		if isF {
			d := y.asFloat()
			if d == 0 {
				fail(rterrf(pos, "floating division by zero"))
			}
			return fval(x.asFloat() / d)
		}
		if y.i == 0 {
			fail(rterrf(pos, "integer division by zero"))
		}
		return ival(x.i / y.i)
	case minic.TokPercent:
		if y.asInt() == 0 {
			fail(rterrf(pos, "modulo by zero"))
		}
		return ival(x.asInt() % y.asInt())
	case minic.TokAmp:
		return ival(x.asInt() & y.asInt())
	case minic.TokPipe:
		return ival(x.asInt() | y.asInt())
	case minic.TokCaret:
		return ival(x.asInt() ^ y.asInt())
	case minic.TokShl:
		return ival(x.asInt() << uint(y.asInt()&63))
	case minic.TokShr:
		return ival(x.asInt() >> uint(y.asInt()&63))
	case minic.TokEq:
		if isF {
			return bval(x.asFloat() == y.asFloat())
		}
		return bval(x.i == y.i)
	case minic.TokNeq:
		if isF {
			return bval(x.asFloat() != y.asFloat())
		}
		return bval(x.i != y.i)
	case minic.TokLt:
		if isF {
			return bval(x.asFloat() < y.asFloat())
		}
		return bval(x.i < y.i)
	case minic.TokGt:
		if isF {
			return bval(x.asFloat() > y.asFloat())
		}
		return bval(x.i > y.i)
	case minic.TokLe:
		if isF {
			return bval(x.asFloat() <= y.asFloat())
		}
		return bval(x.i <= y.i)
	case minic.TokGe:
		if isF {
			return bval(x.asFloat() >= y.asFloat())
		}
		return bval(x.i >= y.i)
	}
	fail(rterrf(pos, "unhandled binary %s", op))
	return val{}
}
