package interp

// The AST tree-walking evaluator this package shipped before the
// slot-resolved executor, kept verbatim (modulo renames) as a test-only
// reference. The parity suite runs both on the same programs and requires
// identical profiles, footprints, checksums and errors, so the rewrite can
// change only the cost of profiling, never its result.

import (
	"fmt"
	"math"

	"repro/internal/minic"
)

func refInt(i int64) Value { return Value{Type: minic.ScalarType(minic.Int), I: i} }
func refFloat(f float64) Value {
	return Value{Type: minic.ScalarType(minic.Float), F: f}
}

// refInterp executes a checked program.
type refInterp struct {
	prog    *minic.Program
	globals map[*minic.Symbol]*Value
	profile *Profile
	// StepLimit aborts runaway programs (0 = no limit).
	StepLimit int64
	steps     int64
	// RecordFootprints enables per-statement concrete footprint capture
	// (Profile.Footprints). Off by default: it adds a map insert per array
	// element access per active statement.
	RecordFootprints bool
	stmtStack        []minic.Stmt
}

// recordElem attributes one element access on av (at flat offset off within
// the view) to every statement currently executing.
func (in *refInterp) recordElem(av *Value, off int, write bool) {
	if in.profile == nil || in.profile.Footprints == nil || av.Root == nil {
		return
	}
	idx := av.RootOff + off
	for _, s := range in.stmtStack {
		fp := in.profile.Footprints[s]
		if fp == nil {
			fp = newFootprint()
			in.profile.Footprints[s] = fp
		}
		if write {
			addElem(fp.Writes, av.Root, idx)
		} else {
			addElem(fp.Reads, av.Root, idx)
		}
	}
}

// newRef creates a reference interpreter for prog. The program must have been checked
// (Compile or Check).
func newRef(prog *minic.Program) *refInterp {
	return &refInterp{prog: prog, globals: make(map[*minic.Symbol]*Value), StepLimit: 1 << 32}
}

// refControl models non-sequential refControl flow during execution.
type refControl int

const (
	refCtrlNone refControl = iota
	refCtrlBreak
	refCtrlContinue
	refCtrlReturn
)

// refFrame is one function activation.
type refFrame struct {
	locals map[*minic.Symbol]*Value
	ret    Value
	hasRet bool
}

// Run executes main() and returns the profile. Globals are (re)initialized
// first, so Run is repeatable.
func (in *refInterp) Run() (*Profile, error) {
	main := in.prog.Func("main")
	if main == nil {
		return nil, fmt.Errorf("program has no main function")
	}
	in.profile = &Profile{
		StmtCount: make(map[minic.Stmt]int64),
		FuncCount: make(map[*minic.FuncDecl]int64),
	}
	if in.RecordFootprints {
		in.profile.Footprints = make(map[minic.Stmt]*Footprint)
	}
	in.steps = 0
	in.stmtStack = in.stmtStack[:0]
	in.globals = make(map[*minic.Symbol]*Value)
	for _, g := range in.prog.Globals {
		v, err := in.newVar(g.Type)
		if err != nil {
			return nil, err
		}
		v.Root = g.Sym
		in.globals[g.Sym] = v
		if err := in.initVar(v, g.Type, g.Init, g.List); err != nil {
			return nil, err
		}
	}
	_, err := in.call(main, nil)
	if err != nil {
		return nil, err
	}
	return in.profile, nil
}

// GlobalChecksum folds every global variable's contents into a single
// float64, used as a golden output fingerprint for benchmark validation.
func (in *refInterp) GlobalChecksum() float64 {
	sum := 0.0
	k := 1.0
	for _, g := range in.prog.Globals {
		v := in.globals[g.Sym]
		if v == nil {
			continue
		}
		switch {
		case v.IntArr != nil:
			for _, x := range v.IntArr {
				sum += k * float64(x)
				k = nextK(k)
			}
		case v.Arr != nil:
			for _, x := range v.Arr {
				sum += k * x
				k = nextK(k)
			}
		case v.isFloat():
			sum += k * v.F
			k = nextK(k)
		default:
			sum += k * float64(v.I)
			k = nextK(k)
		}
	}
	return sum
}

// GlobalValue returns the current value of the named global variable after
// a Run, or the zero Value if no such global exists.
func (in *refInterp) GlobalValue(name string) Value {
	for _, g := range in.prog.Globals {
		if g.Name == name {
			if v := in.globals[g.Sym]; v != nil {
				return *v
			}
		}
	}
	return Value{}
}

func (in *refInterp) newVar(t minic.Type) (*Value, error) {
	v := &Value{Type: t}
	if t.IsArray() {
		if t.Base == minic.Int {
			v.IntArr = make([]int64, t.NumElems())
		} else {
			v.Arr = make([]float64, t.NumElems())
		}
	}
	return v, nil
}

func (in *refInterp) initVar(v *Value, t minic.Type, init minic.Expr, list []minic.Expr) error {
	if init != nil {
		x, err := in.eval(init, nil)
		if err != nil {
			return err
		}
		refStore(v, x)
		return nil
	}
	for i, e := range list {
		x, err := in.eval(e, nil)
		if err != nil {
			return err
		}
		if v.IntArr != nil {
			v.IntArr[i] = x.AsInt()
		} else {
			v.Arr[i] = x.AsFloat()
		}
	}
	return nil
}

func refStore(v *Value, x Value) {
	if v.Type.Base == minic.Float {
		v.F = x.AsFloat()
	} else {
		v.I = x.AsInt()
	}
}

func (in *refInterp) call(fn *minic.FuncDecl, args []Value) (Value, error) {
	in.profile.FuncCount[fn]++
	fr := &refFrame{locals: make(map[*minic.Symbol]*Value)}
	for i := range fn.Params {
		p := &fn.Params[i]
		a := args[i]
		if p.Type.IsArray() {
			// Pass by reference: share the backing store.
			pv := &Value{Type: a.Type, Arr: a.Arr, IntArr: a.IntArr, Root: a.Root, RootOff: a.RootOff}
			fr.locals[p.Sym] = pv
		} else {
			pv := &Value{Type: p.Type}
			refStore(pv, a)
			fr.locals[p.Sym] = pv
		}
	}
	ctl, err := in.execBlock(fn.Body, fr)
	if err != nil {
		return Value{}, err
	}
	_ = ctl
	if fn.Result.Base != minic.Void && !fr.hasRet {
		return Value{}, rterrf(fn.Pos, "function %s fell off the end without returning", fn.Name)
	}
	return fr.ret, nil
}

func (in *refInterp) tick(pos minic.Pos) error {
	in.steps++
	if in.StepLimit > 0 && in.steps > in.StepLimit {
		return rterrf(pos, "step limit exceeded (infinite loop?)")
	}
	return nil
}

func (in *refInterp) execBlock(b *minic.BlockStmt, fr *refFrame) (refControl, error) {
	for _, s := range b.Stmts {
		ctl, err := in.exec(s, fr)
		if err != nil {
			return refCtrlNone, err
		}
		if ctl != refCtrlNone {
			return ctl, nil
		}
	}
	return refCtrlNone, nil
}

func (in *refInterp) exec(s minic.Stmt, fr *refFrame) (refControl, error) {
	in.profile.StmtCount[s]++
	if err := in.tick(s.NodePos()); err != nil {
		return refCtrlNone, err
	}
	if in.profile.Footprints != nil {
		in.stmtStack = append(in.stmtStack, s)
		defer func() { in.stmtStack = in.stmtStack[:len(in.stmtStack)-1] }()
	}
	switch st := s.(type) {
	case *minic.DeclStmt:
		v, err := in.newVar(st.Type)
		if err != nil {
			return refCtrlNone, err
		}
		v.Root = st.Sym
		fr.locals[st.Sym] = v
		return refCtrlNone, in.initVarFr(v, st, fr)
	case *minic.ExprStmt:
		_, err := in.eval(st.X, fr)
		return refCtrlNone, err
	case *minic.BlockStmt:
		return in.execBlock(st, fr)
	case *minic.IfStmt:
		c, err := in.eval(st.Cond, fr)
		if err != nil {
			return refCtrlNone, err
		}
		if refTruthy(c) {
			return in.execBlock(st.Then, fr)
		}
		if st.Else != nil {
			return in.exec(st.Else, fr)
		}
		return refCtrlNone, nil
	case *minic.ForStmt:
		if st.Init != nil {
			if _, err := in.exec(st.Init, fr); err != nil {
				return refCtrlNone, err
			}
		}
		for {
			if st.Cond != nil {
				c, err := in.eval(st.Cond, fr)
				if err != nil {
					return refCtrlNone, err
				}
				if !refTruthy(c) {
					break
				}
			}
			ctl, err := in.execBlock(st.Body, fr)
			if err != nil {
				return refCtrlNone, err
			}
			if ctl == refCtrlBreak {
				break
			}
			if ctl == refCtrlReturn {
				return refCtrlReturn, nil
			}
			if st.Post != nil {
				if _, err := in.eval(st.Post, fr); err != nil {
					return refCtrlNone, err
				}
			}
			if err := in.tick(st.Pos); err != nil {
				return refCtrlNone, err
			}
		}
		return refCtrlNone, nil
	case *minic.WhileStmt:
		if st.DoWhile {
			for {
				ctl, err := in.execBlock(st.Body, fr)
				if err != nil {
					return refCtrlNone, err
				}
				if ctl == refCtrlBreak {
					break
				}
				if ctl == refCtrlReturn {
					return refCtrlReturn, nil
				}
				c, err := in.eval(st.Cond, fr)
				if err != nil {
					return refCtrlNone, err
				}
				if !refTruthy(c) {
					break
				}
				if err := in.tick(st.Pos); err != nil {
					return refCtrlNone, err
				}
			}
			return refCtrlNone, nil
		}
		for {
			c, err := in.eval(st.Cond, fr)
			if err != nil {
				return refCtrlNone, err
			}
			if !refTruthy(c) {
				break
			}
			ctl, err := in.execBlock(st.Body, fr)
			if err != nil {
				return refCtrlNone, err
			}
			if ctl == refCtrlBreak {
				break
			}
			if ctl == refCtrlReturn {
				return refCtrlReturn, nil
			}
			if err := in.tick(st.Pos); err != nil {
				return refCtrlNone, err
			}
		}
		return refCtrlNone, nil
	case *minic.ReturnStmt:
		if st.Value != nil {
			v, err := in.eval(st.Value, fr)
			if err != nil {
				return refCtrlNone, err
			}
			fr.ret = v
		}
		fr.hasRet = true
		return refCtrlReturn, nil
	case *minic.BreakStmt:
		return refCtrlBreak, nil
	case *minic.ContinueStmt:
		return refCtrlContinue, nil
	}
	return refCtrlNone, fmt.Errorf("unhandled statement %T", s)
}

func (in *refInterp) initVarFr(v *Value, st *minic.DeclStmt, fr *refFrame) error {
	if st.Init != nil {
		x, err := in.eval(st.Init, fr)
		if err != nil {
			return err
		}
		refStore(v, x)
		return nil
	}
	for i, e := range st.List {
		x, err := in.eval(e, fr)
		if err != nil {
			return err
		}
		in.recordElem(v, i, true)
		if v.IntArr != nil {
			v.IntArr[i] = x.AsInt()
		} else {
			v.Arr[i] = x.AsFloat()
		}
	}
	return nil
}

func refTruthy(v Value) bool {
	if v.isFloat() {
		return v.F != 0
	}
	return v.I != 0
}

// lookupVar resolves a symbol to its storage in the current refFrame or
// globals.
func (in *refInterp) lookupVar(sym *minic.Symbol, fr *refFrame) (*Value, error) {
	if fr != nil {
		if v, ok := fr.locals[sym]; ok {
			return v, nil
		}
	}
	if v, ok := in.globals[sym]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("internal: storage for %s not found", sym)
}

// elemOffset computes the flat element offset for an index expression and
// bounds-checks it.
func (in *refInterp) elemOffset(ix *minic.IndexExpr, av *Value, fr *refFrame) (int, error) {
	dims := av.Type.Dims
	if len(ix.Indices) != len(dims) {
		return 0, rterrf(ix.Pos, "partial array indexing of %s used as a value", ix.Array.Name)
	}
	off := 0
	for d, ie := range ix.Indices {
		iv, err := in.eval(ie, fr)
		if err != nil {
			return 0, err
		}
		i := int(iv.AsInt())
		extent := dims[d]
		if extent == 0 {
			// Unsized parameter dim: bound by backing store later.
			extent = 1 << 30
		}
		if i < 0 || i >= extent {
			return 0, rterrf(ix.Pos, "index %d out of bounds [0,%d) for %s", i, dims[d], ix.Array.Name)
		}
		stride := 1
		for _, d2 := range dims[d+1:] {
			stride *= d2
		}
		off += i * stride
	}
	n := len(av.Arr) + len(av.IntArr)
	if off >= n {
		return 0, rterrf(ix.Pos, "flattened index %d out of bounds (size %d) for %s", off, n, ix.Array.Name)
	}
	return off, nil
}

func (in *refInterp) eval(e minic.Expr, fr *refFrame) (Value, error) {
	in.profile.OpCount++
	switch ex := e.(type) {
	case *minic.IntLit:
		return refInt(ex.Value), nil
	case *minic.FloatLit:
		return refFloat(ex.Value), nil
	case *minic.VarRef:
		v, err := in.lookupVar(ex.Sym, fr)
		if err != nil {
			return Value{}, err
		}
		return *v, nil
	case *minic.IndexExpr:
		av, err := in.lookupVar(ex.Array.Sym, fr)
		if err != nil {
			return Value{}, err
		}
		if len(ex.Indices) < len(av.Type.Dims) {
			// Row view of a 2-D array (only valid as a call argument,
			// handled in CallExpr); here it is an error.
			return Value{}, rterrf(ex.Pos, "partial indexing of %s outside a call argument", ex.Array.Name)
		}
		off, err := in.elemOffset(ex, av, fr)
		if err != nil {
			return Value{}, err
		}
		in.recordElem(av, off, false)
		if av.IntArr != nil {
			return refInt(av.IntArr[off]), nil
		}
		return refFloat(av.Arr[off]), nil
	case *minic.UnaryExpr:
		x, err := in.eval(ex.X, fr)
		if err != nil {
			return Value{}, err
		}
		switch ex.Op {
		case minic.TokMinus:
			if x.isFloat() {
				return refFloat(-x.F), nil
			}
			return refInt(-x.I), nil
		case minic.TokNot:
			if refTruthy(x) {
				return refInt(0), nil
			}
			return refInt(1), nil
		case minic.TokTilde:
			return refInt(^x.AsInt()), nil
		}
		return Value{}, rterrf(ex.Pos, "unhandled unary %s", ex.Op)
	case *minic.BinaryExpr:
		return in.evalBinary(ex, fr)
	case *minic.CondExpr:
		c, err := in.eval(ex.Cond, fr)
		if err != nil {
			return Value{}, err
		}
		if refTruthy(c) {
			return in.eval(ex.Then, fr)
		}
		return in.eval(ex.Else, fr)
	case *minic.CallExpr:
		return in.evalCall(ex, fr)
	case *minic.AssignExpr:
		return in.evalAssign(ex, fr)
	case *minic.IncDecExpr:
		return in.evalIncDec(ex, fr)
	case *minic.CastExpr:
		x, err := in.eval(ex.X, fr)
		if err != nil {
			return Value{}, err
		}
		if ex.To == minic.Int {
			return refInt(x.AsInt()), nil
		}
		return refFloat(x.AsFloat()), nil
	}
	return Value{}, fmt.Errorf("unhandled expression %T", e)
}

func (in *refInterp) evalBinary(ex *minic.BinaryExpr, fr *refFrame) (Value, error) {
	// Short-circuit logical operators.
	if ex.Op == minic.TokAndAnd || ex.Op == minic.TokOrOr {
		x, err := in.eval(ex.X, fr)
		if err != nil {
			return Value{}, err
		}
		if ex.Op == minic.TokAndAnd && !refTruthy(x) {
			return refInt(0), nil
		}
		if ex.Op == minic.TokOrOr && refTruthy(x) {
			return refInt(1), nil
		}
		y, err := in.eval(ex.Y, fr)
		if err != nil {
			return Value{}, err
		}
		if refTruthy(y) {
			return refInt(1), nil
		}
		return refInt(0), nil
	}
	x, err := in.eval(ex.X, fr)
	if err != nil {
		return Value{}, err
	}
	y, err := in.eval(ex.Y, fr)
	if err != nil {
		return Value{}, err
	}
	isF := x.isFloat() || y.isFloat()
	b2i := func(b bool) Value {
		if b {
			return refInt(1)
		}
		return refInt(0)
	}
	switch ex.Op {
	case minic.TokPlus:
		if isF {
			return refFloat(x.AsFloat() + y.AsFloat()), nil
		}
		return refInt(x.I + y.I), nil
	case minic.TokMinus:
		if isF {
			return refFloat(x.AsFloat() - y.AsFloat()), nil
		}
		return refInt(x.I - y.I), nil
	case minic.TokStar:
		if isF {
			return refFloat(x.AsFloat() * y.AsFloat()), nil
		}
		return refInt(x.I * y.I), nil
	case minic.TokSlash:
		if isF {
			d := y.AsFloat()
			if d == 0 {
				return Value{}, rterrf(ex.Pos, "floating division by zero")
			}
			return refFloat(x.AsFloat() / d), nil
		}
		if y.I == 0 {
			return Value{}, rterrf(ex.Pos, "integer division by zero")
		}
		return refInt(x.I / y.I), nil
	case minic.TokPercent:
		if y.AsInt() == 0 {
			return Value{}, rterrf(ex.Pos, "modulo by zero")
		}
		return refInt(x.AsInt() % y.AsInt()), nil
	case minic.TokAmp:
		return refInt(x.AsInt() & y.AsInt()), nil
	case minic.TokPipe:
		return refInt(x.AsInt() | y.AsInt()), nil
	case minic.TokCaret:
		return refInt(x.AsInt() ^ y.AsInt()), nil
	case minic.TokShl:
		return refInt(x.AsInt() << uint(y.AsInt()&63)), nil
	case minic.TokShr:
		return refInt(x.AsInt() >> uint(y.AsInt()&63)), nil
	case minic.TokEq:
		if isF {
			return b2i(x.AsFloat() == y.AsFloat()), nil
		}
		return b2i(x.I == y.I), nil
	case minic.TokNeq:
		if isF {
			return b2i(x.AsFloat() != y.AsFloat()), nil
		}
		return b2i(x.I != y.I), nil
	case minic.TokLt:
		if isF {
			return b2i(x.AsFloat() < y.AsFloat()), nil
		}
		return b2i(x.I < y.I), nil
	case minic.TokGt:
		if isF {
			return b2i(x.AsFloat() > y.AsFloat()), nil
		}
		return b2i(x.I > y.I), nil
	case minic.TokLe:
		if isF {
			return b2i(x.AsFloat() <= y.AsFloat()), nil
		}
		return b2i(x.I <= y.I), nil
	case minic.TokGe:
		if isF {
			return b2i(x.AsFloat() >= y.AsFloat()), nil
		}
		return b2i(x.I >= y.I), nil
	}
	return Value{}, rterrf(ex.Pos, "unhandled binary %s", ex.Op)
}

func (in *refInterp) evalCall(ex *minic.CallExpr, fr *refFrame) (Value, error) {
	if ex.Builtin != "" {
		return in.evalBuiltin(ex, fr)
	}
	args := make([]Value, len(ex.Args))
	for i, a := range ex.Args {
		if ex.Fn.Params[i].Type.IsArray() {
			av, err := in.arrayArg(a, fr)
			if err != nil {
				return Value{}, err
			}
			args[i] = av
			continue
		}
		v, err := in.eval(a, fr)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return in.call(ex.Fn, args)
}

// arrayArg resolves an array-typed argument: either a whole array variable
// or a row of a 2-D array.
func (in *refInterp) arrayArg(a minic.Expr, fr *refFrame) (Value, error) {
	switch arg := a.(type) {
	case *minic.VarRef:
		v, err := in.lookupVar(arg.Sym, fr)
		if err != nil {
			return Value{}, err
		}
		return *v, nil
	case *minic.IndexExpr:
		base, err := in.lookupVar(arg.Array.Sym, fr)
		if err != nil {
			return Value{}, err
		}
		if len(arg.Indices) >= len(base.Type.Dims) {
			return Value{}, rterrf(arg.Pos, "argument %s is not an array view", arg.Array.Name)
		}
		// Row view: compute the row offset.
		iv, err := in.eval(arg.Indices[0], fr)
		if err != nil {
			return Value{}, err
		}
		row := int(iv.AsInt())
		if row < 0 || row >= base.Type.Dims[0] {
			return Value{}, rterrf(arg.Pos, "row %d out of bounds for %s", row, arg.Array.Name)
		}
		stride := base.Type.Dims[1]
		view := Value{
			Type:    minic.Type{Base: base.Type.Base, Dims: base.Type.Dims[1:]},
			Root:    base.Root,
			RootOff: base.RootOff + row*stride,
		}
		if base.IntArr != nil {
			view.IntArr = base.IntArr[row*stride : (row+1)*stride]
		} else {
			view.Arr = base.Arr[row*stride : (row+1)*stride]
		}
		return view, nil
	}
	return Value{}, rterrf(a.NodePos(), "unsupported array argument form")
}

func (in *refInterp) evalBuiltin(ex *minic.CallExpr, fr *refFrame) (Value, error) {
	vals := make([]Value, len(ex.Args))
	for i, a := range ex.Args {
		v, err := in.eval(a, fr)
		if err != nil {
			return Value{}, err
		}
		vals[i] = v
	}
	allInt := true
	for _, v := range vals {
		if v.isFloat() {
			allInt = false
		}
	}
	f := func(i int) float64 { return vals[i].AsFloat() }
	switch ex.Builtin {
	case "fabs":
		return refFloat(math.Abs(f(0))), nil
	case "sqrt":
		if f(0) < 0 {
			return Value{}, rterrf(ex.Pos, "sqrt of negative value %g", f(0))
		}
		return refFloat(math.Sqrt(f(0))), nil
	case "sin":
		return refFloat(math.Sin(f(0))), nil
	case "cos":
		return refFloat(math.Cos(f(0))), nil
	case "tan":
		return refFloat(math.Tan(f(0))), nil
	case "exp":
		return refFloat(math.Exp(f(0))), nil
	case "log":
		if f(0) <= 0 {
			return Value{}, rterrf(ex.Pos, "log of non-positive value %g", f(0))
		}
		return refFloat(math.Log(f(0))), nil
	case "floor":
		return refFloat(math.Floor(f(0))), nil
	case "ceil":
		return refFloat(math.Ceil(f(0))), nil
	case "pow":
		return refFloat(math.Pow(f(0), f(1))), nil
	case "atan":
		return refFloat(math.Atan(f(0))), nil
	case "atan2":
		return refFloat(math.Atan2(f(0), f(1))), nil
	case "abs":
		if allInt {
			x := vals[0].I
			if x < 0 {
				x = -x
			}
			return refInt(x), nil
		}
		return refFloat(math.Abs(f(0))), nil
	case "min":
		if allInt {
			if vals[0].I < vals[1].I {
				return vals[0], nil
			}
			return vals[1], nil
		}
		return refFloat(math.Min(f(0), f(1))), nil
	case "max":
		if allInt {
			if vals[0].I > vals[1].I {
				return vals[0], nil
			}
			return vals[1], nil
		}
		return refFloat(math.Max(f(0), f(1))), nil
	}
	return Value{}, rterrf(ex.Pos, "unhandled builtin %s", ex.Builtin)
}

func (in *refInterp) evalAssign(ex *minic.AssignExpr, fr *refFrame) (Value, error) {
	rhs, err := in.eval(ex.RHS, fr)
	if err != nil {
		return Value{}, err
	}
	lv, err := in.lvalue(ex.LHS, fr)
	if err != nil {
		return Value{}, err
	}
	var out Value
	if ex.Op == minic.TokAssign {
		out = rhs
	} else {
		cur := lv.read()
		op := refCompoundBase(ex.Op)
		out, err = refArith(ex.Pos, op, cur, rhs)
		if err != nil {
			return Value{}, err
		}
	}
	lv.write(out)
	return lv.peek(), nil
}

func refCompoundBase(k minic.TokenKind) minic.TokenKind {
	switch k {
	case minic.TokPlusEq:
		return minic.TokPlus
	case minic.TokMinusEq:
		return minic.TokMinus
	case minic.TokStarEq:
		return minic.TokStar
	case minic.TokSlashEq:
		return minic.TokSlash
	case minic.TokPercentEq:
		return minic.TokPercent
	case minic.TokShlEq:
		return minic.TokShl
	case minic.TokShrEq:
		return minic.TokShr
	case minic.TokAndEq:
		return minic.TokAmp
	case minic.TokOrEq:
		return minic.TokPipe
	case minic.TokXorEq:
		return minic.TokCaret
	}
	return k
}

// applyArith applies a binary arithmetic op outside the profiling path (used
// for compound assignment and ++/--).
func refArith(pos minic.Pos, op minic.TokenKind, x, y Value) (Value, error) {
	be := &minic.BinaryExpr{Pos: pos, Op: op}
	_ = be
	isF := x.isFloat() || y.isFloat()
	switch op {
	case minic.TokPlus:
		if isF {
			return refFloat(x.AsFloat() + y.AsFloat()), nil
		}
		return refInt(x.I + y.I), nil
	case minic.TokMinus:
		if isF {
			return refFloat(x.AsFloat() - y.AsFloat()), nil
		}
		return refInt(x.I - y.I), nil
	case minic.TokStar:
		if isF {
			return refFloat(x.AsFloat() * y.AsFloat()), nil
		}
		return refInt(x.I * y.I), nil
	case minic.TokSlash:
		if isF {
			d := y.AsFloat()
			if d == 0 {
				return Value{}, rterrf(pos, "floating division by zero")
			}
			return refFloat(x.AsFloat() / d), nil
		}
		if y.I == 0 {
			return Value{}, rterrf(pos, "integer division by zero")
		}
		return refInt(x.I / y.I), nil
	case minic.TokPercent:
		if y.AsInt() == 0 {
			return Value{}, rterrf(pos, "modulo by zero")
		}
		return refInt(x.AsInt() % y.AsInt()), nil
	case minic.TokShl:
		return refInt(x.AsInt() << uint(y.AsInt()&63)), nil
	case minic.TokShr:
		return refInt(x.AsInt() >> uint(y.AsInt()&63)), nil
	case minic.TokAmp:
		return refInt(x.AsInt() & y.AsInt()), nil
	case minic.TokPipe:
		return refInt(x.AsInt() | y.AsInt()), nil
	case minic.TokCaret:
		return refInt(x.AsInt() ^ y.AsInt()), nil
	}
	return Value{}, rterrf(pos, "unhandled compound op %s", op)
}

// refLval is a resolved assignable expression. read records a footprint read
// (it stands for a semantic load, as in compound assignment); peek returns
// the stored value without recording (used for assignment result values,
// which C does not re-load). The write conversion respects the storage type
// (C assignment semantics).
type refLval struct {
	read  func() Value
	write func(Value)
	peek  func() Value
}

func (in *refInterp) lvalue(e minic.Expr, fr *refFrame) (refLval, error) {
	switch lv := e.(type) {
	case *minic.VarRef:
		v, err := in.lookupVar(lv.Sym, fr)
		if err != nil {
			return refLval{}, err
		}
		peek := func() Value { return *v }
		write := func(x Value) { refStore(v, x) }
		return refLval{read: peek, write: write, peek: peek}, nil
	case *minic.IndexExpr:
		av, err := in.lookupVar(lv.Array.Sym, fr)
		if err != nil {
			return refLval{}, err
		}
		off, err := in.elemOffset(lv, av, fr)
		if err != nil {
			return refLval{}, err
		}
		var peek func() Value
		var write func(Value)
		if av.IntArr != nil {
			peek = func() Value { return refInt(av.IntArr[off]) }
			write = func(x Value) {
				in.recordElem(av, off, true)
				av.IntArr[off] = x.AsInt()
			}
		} else {
			peek = func() Value { return refFloat(av.Arr[off]) }
			write = func(x Value) {
				in.recordElem(av, off, true)
				av.Arr[off] = x.AsFloat()
			}
		}
		read := func() Value {
			in.recordElem(av, off, false)
			return peek()
		}
		return refLval{read: read, write: write, peek: peek}, nil
	}
	return refLval{}, rterrf(e.NodePos(), "expression is not assignable")
}

func (in *refInterp) evalIncDec(ex *minic.IncDecExpr, fr *refFrame) (Value, error) {
	lv, err := in.lvalue(ex.X, fr)
	if err != nil {
		return Value{}, err
	}
	cur := lv.read()
	op := minic.TokPlus
	if ex.Op == minic.TokDec {
		op = minic.TokMinus
	}
	out, err := refArith(ex.Pos, op, cur, refInt(1))
	if err != nil {
		return Value{}, err
	}
	lv.write(out)
	return lv.peek(), nil
}
