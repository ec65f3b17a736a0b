package interp

import (
	"fmt"
	"math"

	"repro/internal/minic"
)

// code is a program resolved for execution.
type code struct {
	stmts   []minic.Stmt // counted statements, by dense index
	funcs   []*fnCode    // by function index (declaration order)
	main    *fnCode
	globals []func() // creates and initializes each global, in order
}

// fnCode is one resolved function.
type fnCode struct {
	decl   *minic.FuncDecl
	idx    int
	ns, na int    // scalar and array slots of a frame
	params []slot // in declaration order
	body   stmtFn
}

// slot locates a variable: a frame slot, or a global by declaration index.
type slot struct {
	global bool
	arr    bool
	float  bool // scalar storage type
	k      int
	sym    *minic.Symbol
}

// conv converts x to the variable's storage type (C assignment semantics).
func (s *slot) conv(x val) val {
	if s.float {
		return fval(x.asFloat())
	}
	return ival(x.asInt())
}

// resolver turns the checked AST into closures. Its maps are used only
// while resolving, never while executing.
type resolver struct {
	in    *Interp
	code  *code
	slots map[*minic.Symbol]*slot
	fns   map[*minic.FuncDecl]*fnCode
	fn    *fnCode // function being resolved
}

func resolve(in *Interp) *code {
	r := &resolver{
		in:    in,
		code:  &code{},
		slots: make(map[*minic.Symbol]*slot),
		fns:   make(map[*minic.FuncDecl]*fnCode),
	}
	for gi, g := range in.prog.Globals {
		r.slots[g.Sym] = &slot{global: true, arr: g.Type.IsArray(), float: g.Type.Base == minic.Float, k: gi, sym: g.Sym}
	}
	for i, f := range in.prog.Funcs {
		fc := &fnCode{decl: f, idx: i}
		r.fns[f] = fc
		r.code.funcs = append(r.code.funcs, fc)
		for j := range f.Params {
			fc.params = append(fc.params, *r.declare(fc, f.Params[j].Sym, f.Params[j].Type))
		}
	}
	for gi, g := range in.prog.Globals {
		r.code.globals = append(r.code.globals, r.global(gi, g))
	}
	for _, fc := range r.code.funcs {
		r.fn = fc
		fc.body = r.block(fc.decl.Body)
	}
	r.code.main = r.fns[in.prog.Func("main")]
	return r.code
}

// declare gives sym the next scalar or array slot of fc.
func (r *resolver) declare(fc *fnCode, sym *minic.Symbol, t minic.Type) *slot {
	s := &slot{arr: t.IsArray(), float: t.Base == minic.Float, sym: sym}
	if s.arr {
		s.k, fc.na = fc.na, fc.na+1
	} else {
		s.k, fc.ns = fc.ns, fc.ns+1
	}
	r.slots[sym] = s
	return s
}

func (r *resolver) global(gi int, g *minic.GlobalDecl) func() {
	in := r.in
	create := r.create(r.slots[g.Sym], g.Init, g.List)
	return func() {
		in.nGlob = gi + 1
		create(&in.globals)
	}
}

// create resolves a declaration: it gives the variable in slot sl of fr a
// fresh zeroed scalar or array, then runs the initializer in fr.
func (r *resolver) create(sl *slot, init minic.Expr, list []minic.Expr) func(fr *frame) {
	in := r.in
	initFn, listFns := r.optExpr(init), r.exprs(list)
	if sl.arr {
		return func(fr *frame) {
			av := &fr.a[sl.k]
			*av = newArr(sl.sym.Type, sl.sym)
			if initFn != nil {
				initFn(fr) // an array has no scalar to store it in
			} else {
				in.fill(fr, av, listFns)
			}
		}
	}
	return func(fr *frame) {
		fr.s[sl.k] = sl.conv(val{})
		if initFn != nil {
			fr.s[sl.k] = sl.conv(initFn(fr))
		} else if len(listFns) > 0 {
			in.fill(fr, &arr{root: sl.sym}, listFns) // a scalar has no elements to fill
		}
	}
}

func (r *resolver) exprs(list []minic.Expr) []exprFn {
	out := make([]exprFn, len(list))
	for i, e := range list {
		out[i] = r.expr(e)
	}
	return out
}

// block runs a statement list without counting the block itself (function
// bodies, then-blocks and loop bodies).
func (r *resolver) block(b *minic.BlockStmt) stmtFn {
	list := make([]stmtFn, len(b.Stmts))
	for i, s := range b.Stmts {
		list[i] = r.stmt(s)
	}
	return func(fr *frame) ctl {
		for _, s := range list {
			if c := s(fr); c != ctlNone {
				return c
			}
		}
		return ctlNone
	}
}

// stmt resolves a counted statement: it bumps its count and the step
// counter, and while footprints are recorded it sits on the statement stack.
func (r *resolver) stmt(s minic.Stmt) stmtFn {
	in := r.in
	id := int32(len(r.code.stmts))
	r.code.stmts = append(r.code.stmts, s)
	pos := s.NodePos()
	run := r.exec(s)
	return func(fr *frame) ctl {
		in.stmtN[id]++
		in.tick(pos)
		if in.fps == nil {
			return run(fr)
		}
		in.stack = append(in.stack, id)
		c := run(fr)
		in.stack = in.stack[:len(in.stack)-1]
		return c
	}
}

func (r *resolver) optExpr(e minic.Expr) exprFn {
	if e == nil {
		return nil
	}
	return r.expr(e)
}

func (r *resolver) exec(s minic.Stmt) stmtFn {
	in := r.in
	switch st := s.(type) {
	case *minic.DeclStmt:
		create := r.create(r.declare(r.fn, st.Sym, st.Type), st.Init, st.List)
		return func(fr *frame) ctl {
			create(fr)
			return ctlNone
		}
	case *minic.ExprStmt:
		x := r.expr(st.X)
		return func(fr *frame) ctl {
			x(fr)
			return ctlNone
		}
	case *minic.BlockStmt:
		return r.block(st)
	case *minic.IfStmt:
		cond, then := r.expr(st.Cond), r.block(st.Then)
		var els stmtFn
		if st.Else != nil {
			els = r.stmt(st.Else)
		}
		return func(fr *frame) ctl {
			if cond(fr).truthy() {
				return then(fr)
			}
			if els != nil {
				return els(fr)
			}
			return ctlNone
		}
	case *minic.ForStmt:
		var init stmtFn
		if st.Init != nil {
			init = r.stmt(st.Init)
		}
		return r.loop(init, r.optExpr(st.Cond), r.optExpr(st.Post), r.block(st.Body), st.Pos)
	case *minic.WhileStmt:
		cond, body := r.expr(st.Cond), r.block(st.Body)
		if !st.DoWhile {
			return r.loop(nil, cond, nil, body, st.Pos)
		}
		return func(fr *frame) ctl {
			for {
				switch body(fr) {
				case ctlBreak:
					return ctlNone
				case ctlReturn:
					return ctlReturn
				}
				if !cond(fr).truthy() {
					return ctlNone
				}
				in.tick(st.Pos)
			}
		}
	case *minic.ReturnStmt:
		v := r.optExpr(st.Value)
		return func(fr *frame) ctl {
			if v != nil {
				fr.ret = v(fr)
			}
			fr.hasRet = true
			return ctlReturn
		}
	case *minic.BreakStmt:
		return func(*frame) ctl { return ctlBreak }
	case *minic.ContinueStmt:
		return func(*frame) ctl { return ctlContinue }
	}
	return func(*frame) ctl {
		fail(fmt.Errorf("unhandled statement %T", s))
		return ctlNone
	}
}

// loop resolves a for or while loop; init, cond and post may be nil. The
// step counter ticks once per completed iteration.
func (r *resolver) loop(init stmtFn, cond, post exprFn, body stmtFn, pos minic.Pos) stmtFn {
	in := r.in
	return func(fr *frame) ctl {
		if init != nil {
			init(fr)
		}
		for cond == nil || cond(fr).truthy() {
			switch body(fr) {
			case ctlBreak:
				return ctlNone
			case ctlReturn:
				return ctlReturn
			}
			if post != nil {
				post(fr)
			}
			in.tick(pos)
		}
		return ctlNone
	}
}

// expr resolves an expression. Every closure counts itself as one
// operation; the assigned-to variable or element and the array arguments of
// a call are not expressions of their own and are not counted.
func (r *resolver) expr(e minic.Expr) exprFn {
	in := r.in
	switch ex := e.(type) {
	case *minic.IntLit:
		return r.constant(ival(ex.Value))
	case *minic.FloatLit:
		return r.constant(fval(ex.Value))
	case *minic.VarRef:
		s := r.slots[ex.Sym]
		switch {
		case s.arr:
			// An array read as a scalar is the zero of its base type.
			zero := val{isF: s.float}
			return func(fr *frame) val {
				in.ops++
				in.array(fr, s)
				return zero
			}
		case s.global:
			return func(*frame) val {
				in.ops++
				in.mustExist(s)
				return in.globals.s[s.k]
			}
		}
		k := s.k
		return func(fr *frame) val {
			in.ops++
			return fr.s[k]
		}
	case *minic.IndexExpr:
		return r.load(ex)
	case *minic.UnaryExpr:
		x := r.expr(ex.X)
		switch ex.Op {
		case minic.TokMinus:
			return func(fr *frame) val {
				in.ops++
				v := x(fr)
				if v.isF {
					return fval(-v.f)
				}
				return ival(-v.i)
			}
		case minic.TokNot:
			return func(fr *frame) val {
				in.ops++
				return bval(!x(fr).truthy())
			}
		case minic.TokTilde:
			return func(fr *frame) val {
				in.ops++
				return ival(^x(fr).asInt())
			}
		}
		return func(fr *frame) val {
			in.ops++
			x(fr)
			fail(rterrf(ex.Pos, "unhandled unary %s", ex.Op))
			return val{}
		}
	case *minic.BinaryExpr:
		x, y := r.expr(ex.X), r.expr(ex.Y)
		switch ex.Op {
		case minic.TokAndAnd:
			return func(fr *frame) val {
				in.ops++
				if !x(fr).truthy() {
					return val{}
				}
				return bval(y(fr).truthy())
			}
		case minic.TokOrOr:
			return func(fr *frame) val {
				in.ops++
				if x(fr).truthy() {
					return ival(1)
				}
				return bval(y(fr).truthy())
			}
		}
		pos, op := ex.Pos, ex.Op
		return func(fr *frame) val {
			in.ops++
			a := x(fr)
			return arith(pos, op, a, y(fr))
		}
	case *minic.CondExpr:
		cond, then, els := r.expr(ex.Cond), r.expr(ex.Then), r.expr(ex.Else)
		return func(fr *frame) val {
			in.ops++
			if cond(fr).truthy() {
				return then(fr)
			}
			return els(fr)
		}
	case *minic.CallExpr:
		if ex.Builtin != "" {
			return r.builtin(ex)
		}
		return r.call(ex)
	case *minic.AssignExpr:
		return r.update(ex.LHS, ex.Pos, compoundBase(ex.Op), r.expr(ex.RHS))
	case *minic.IncDecExpr:
		op := minic.TokPlus
		if ex.Op == minic.TokDec {
			op = minic.TokMinus
		}
		return r.update(ex.X, ex.Pos, op, nil)
	case *minic.CastExpr:
		x := r.expr(ex.X)
		if ex.To == minic.Int {
			return func(fr *frame) val {
				in.ops++
				return ival(x(fr).asInt())
			}
		}
		return func(fr *frame) val {
			in.ops++
			return fval(x(fr).asFloat())
		}
	}
	return func(*frame) val {
		in.ops++
		fail(fmt.Errorf("unhandled expression %T", e))
		return val{}
	}
}

func (r *resolver) constant(v val) exprFn {
	in := r.in
	return func(*frame) val {
		in.ops++
		return v
	}
}

// load resolves an element read.
func (r *resolver) load(ex *minic.IndexExpr) exprFn {
	in := r.in
	s := r.slots[ex.Array.Sym]
	idx := r.exprs(ex.Indices)
	at := &site{ex.Pos, ex.Array.Name}
	return func(fr *frame) val {
		in.ops++
		av := in.array(fr, s)
		if len(idx) < len(av.dims) {
			// Row view of a 2-D array (only valid as a call argument,
			// resolved by arrayArg); here it is an error.
			fail(rterrf(at.pos, "partial indexing of %s outside a call argument", at.name))
		}
		off := in.offset(fr, av, idx, at)
		in.record(av, off, false)
		return av.load(off)
	}
}

func compoundBase(k minic.TokenKind) minic.TokenKind {
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

// update resolves an assignment (rhs set) or ++/-- (rhs nil, a step of 1)
// to the variable or element lhs. The right-hand side is evaluated before
// the element's indices; op is TokAssign for a plain store, else the
// arithmetic applied to the current value, whose element read is recorded.
// The expression yields the stored value.
func (r *resolver) update(lhs minic.Expr, pos minic.Pos, op minic.TokenKind, rhs exprFn) exprFn {
	in := r.in
	operand := rhs
	if operand == nil {
		operand = func(*frame) val { return ival(1) }
	}
	switch lv := lhs.(type) {
	case *minic.VarRef:
		s := r.slots[lv.Sym]
		return func(fr *frame) val {
			in.ops++
			x := operand(fr)
			p := in.scalar(fr, s)
			if op != minic.TokAssign {
				x = arith(pos, op, *p, x)
			}
			*p = s.conv(x)
			return *p
		}
	case *minic.IndexExpr:
		s := r.slots[lv.Array.Sym]
		idx := r.exprs(lv.Indices)
		at := &site{lv.Pos, lv.Array.Name}
		return func(fr *frame) val {
			in.ops++
			x := operand(fr)
			av := in.array(fr, s)
			off := in.offset(fr, av, idx, at)
			if op != minic.TokAssign {
				in.record(av, off, false)
				x = arith(pos, op, av.load(off), x)
			}
			in.record(av, off, true)
			av.store(off, x)
			return av.load(off)
		}
	}
	return func(fr *frame) val {
		in.ops++
		operand(fr)
		fail(rterrf(lhs.NodePos(), "expression is not assignable"))
		return val{}
	}
}

// call resolves a call of a user function. Arguments are evaluated in
// order straight into the callee's frame: scalars converted to the
// parameter type, arrays bound by reference.
func (r *resolver) call(ex *minic.CallExpr) exprFn {
	in := r.in
	fc := r.fns[ex.Fn]
	args := make([]exprFn, len(ex.Args))
	views := make([]func(*frame) arr, len(ex.Args))
	for i, a := range ex.Args {
		if ex.Fn.Params[i].Type.IsArray() {
			views[i] = r.arrayArg(a)
		} else {
			args[i] = r.expr(a)
		}
	}
	return func(fr *frame) val {
		in.ops++
		nf := newFrame(fc)
		for i := range fc.params {
			p := &fc.params[i]
			if p.arr {
				nf.a[p.k] = views[i](fr)
			} else {
				nf.s[p.k] = p.conv(args[i](fr))
			}
		}
		return in.invoke(fc, nf)
	}
}

// arrayArg resolves an array-typed argument: either a whole array variable
// or a row of a 2-D array.
func (r *resolver) arrayArg(a minic.Expr) func(*frame) arr {
	in := r.in
	switch arg := a.(type) {
	case *minic.VarRef:
		s := r.slots[arg.Sym]
		return func(fr *frame) arr {
			return *in.array(fr, s)
		}
	case *minic.IndexExpr:
		s := r.slots[arg.Array.Sym]
		nIdx := len(arg.Indices)
		row0 := r.expr(arg.Indices[0])
		return func(fr *frame) arr {
			base := in.array(fr, s)
			if nIdx >= len(base.dims) {
				fail(rterrf(arg.Pos, "argument %s is not an array view", arg.Array.Name))
			}
			// Row view: compute the row offset.
			row := int(row0(fr).asInt())
			if row < 0 || row >= base.dims[0] {
				fail(rterrf(arg.Pos, "row %d out of bounds for %s", row, arg.Array.Name))
			}
			stride := base.dims[1]
			view := arr{dims: base.dims[1:], root: base.root, off: base.off + row*stride}
			if base.i != nil {
				view.i = base.i[row*stride : (row+1)*stride]
			} else {
				view.f = base.f[row*stride : (row+1)*stride]
			}
			return view
		}
	}
	return func(*frame) arr {
		fail(rterrf(a.NodePos(), "unsupported array argument form"))
		return arr{}
	}
}

// builtin resolves a call of a math builtin. All arguments are evaluated
// first; abs, min and max stay integer when every argument is an int.
func (r *resolver) builtin(ex *minic.CallExpr) exprFn {
	in := r.in
	args := r.exprs(ex.Args)
	pos, name := ex.Pos, ex.Builtin
	eval := func(fr *frame) (v [2]val, allInt bool) {
		allInt = true
		for i, a := range args {
			v[i] = a(fr)
			allInt = allInt && !v[i].isF
		}
		return v, allInt
	}
	unary := map[string]func(float64) float64{
		"fabs": math.Abs, "sin": math.Sin, "cos": math.Cos, "tan": math.Tan, "exp": math.Exp,
		"floor": math.Floor, "ceil": math.Ceil, "atan": math.Atan,
	}
	if f, ok := unary[name]; ok {
		return func(fr *frame) val {
			in.ops++
			v, _ := eval(fr)
			return fval(f(v[0].asFloat()))
		}
	}
	return func(fr *frame) val {
		in.ops++
		v, allInt := eval(fr)
		x, y := v[0].asFloat(), v[1].asFloat()
		switch name {
		case "sqrt":
			if x < 0 {
				fail(rterrf(pos, "sqrt of negative value %g", x))
			}
			return fval(math.Sqrt(x))
		case "log":
			if x <= 0 {
				fail(rterrf(pos, "log of non-positive value %g", x))
			}
			return fval(math.Log(x))
		case "pow":
			return fval(math.Pow(x, y))
		case "atan2":
			return fval(math.Atan2(x, y))
		case "abs":
			if allInt {
				a := v[0].i
				if a < 0 {
					a = -a
				}
				return ival(a)
			}
			return fval(math.Abs(x))
		case "min":
			if allInt {
				if v[0].i < v[1].i {
					return v[0]
				}
				return v[1]
			}
			return fval(math.Min(x, y))
		case "max":
			if allInt {
				if v[0].i > v[1].i {
					return v[0]
				}
				return v[1]
			}
			return fval(math.Max(x, y))
		}
		fail(rterrf(pos, "unhandled builtin %s", name))
		return val{}
	}
}
