package minic

import "fmt"

// Builtins maps the math builtin names accepted by mini-C to an arity.
// They all take and return float except abs/min/max which are overloaded on
// int and float operands.
var Builtins = map[string]int{
	"fabs": 1, "sqrt": 1, "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1,
	"floor": 1, "ceil": 1, "pow": 2, "atan": 1, "atan2": 2,
	"abs": 1, "min": 2, "max": 2,
}

// maxArrayElems bounds the array storage a program may declare: one
// array declaration, and the sum over every global and local array
// declaration of a program, may hold at most this many elements. The
// interpreter allocates each declared array in full when it runs the
// declaration, so without the bound `int a[100000][100000];` would ask
// for 10^10 elements. The bundled benchmarks and examples declare at
// most 18,624 elements in total.
const maxArrayElems = 1 << 20

// checker holds the state of one type-checking pass.
type checker struct {
	prog   *Program
	scopes []map[string]*Symbol
	nextID int
	fn     *FuncDecl
	loop   int // loop nesting depth
	diags  []Diagnostic
	// undefVars / undefFuncs suppress repeated reports for the same unknown
	// name; badSyms marks the synthesized placeholder symbols so later
	// passes can avoid piling type errors onto an already-reported name.
	undefVars  map[string]*Symbol
	undefFuncs map[string]bool
	badSyms    map[*Symbol]bool
	// arrayElems sums the elements of every array declared so far.
	arrayElems int
}

// Check resolves all names, assigns Symbols and verifies types in place.
// All semantic errors are reported together: the returned error, when
// non-nil, is an ErrorList with one positioned Diagnostic per problem.
func Check(prog *Program) error {
	diags := CheckAll(prog)
	if len(diags) == 0 {
		return nil
	}
	return ErrorList(diags)
}

// CheckAll runs the full semantic check and returns every diagnostic found
// (empty for a valid program). After an error the checker keeps going with
// a placeholder symbol or type so one mistake yields one report, not a
// cascade, and the rest of the program is still checked.
func CheckAll(prog *Program) []Diagnostic {
	c := &checker{
		prog:       prog,
		undefVars:  map[string]*Symbol{},
		undefFuncs: map[string]bool{},
		badSyms:    map[*Symbol]bool{},
	}
	c.push()
	defer c.pop()
	// Globals first (in order; forward references between globals are not
	// allowed, matching C initializer rules).
	for _, g := range prog.Globals {
		if g.Init != nil {
			c.exprType(g.Init)
		}
		c.checkStorage(g.Pos, g.Name, g.Type, g.List)
		if g.Type.IsArray() && g.Init != nil {
			c.errorf(g.Pos, "type", "array %s needs a brace initializer", g.Name)
		}
		g.Sym = c.declare(g.Pos, g.Name, SymGlobal, g.Type)
	}
	// Check for duplicate function names and builtin shadowing.
	seen := map[string]bool{}
	for _, f := range prog.Funcs {
		if seen[f.Name] {
			c.errorf(f.Pos, "redeclared", "function %s redefined", f.Name)
		}
		seen[f.Name] = true
		if _, isBuiltin := Builtins[f.Name]; isBuiltin {
			c.errorf(f.Pos, "redeclared", "function %s shadows a builtin", f.Name)
		}
	}
	for _, f := range prog.Funcs {
		c.checkFunc(f)
	}
	if f := prog.Func("main"); f != nil && len(f.Params) > 0 {
		c.errorf(f.Pos, "arity", "main must take no parameters")
	}
	return c.diags
}

// checkStorage checks the brace list of a declaration and the storage
// it declares: a scalar takes no brace list, an array no more
// initializers than elements, and arrays stay within maxArrayElems.
func (c *checker) checkStorage(pos Pos, name string, t Type, list []Expr) {
	for _, e := range list {
		c.exprType(e)
	}
	if t.IsScalar() {
		if list != nil {
			c.errorf(pos, "type", "scalar %s cannot take a brace initializer", name)
		}
		return
	}
	n := 1
	for _, d := range t.Dims {
		if d > maxArrayElems/n {
			c.errorf(pos, "size", "array %s of type %s holds more than %d elements", name, t, maxArrayElems)
			return
		}
		n *= d
	}
	if len(list) > n {
		c.errorf(pos, "type", "too many initializers for %s", name)
	}
	prev := c.arrayElems
	c.arrayElems += n
	if prev <= maxArrayElems && c.arrayElems > maxArrayElems {
		c.errorf(pos, "size", "array %s takes the program's arrays past %d elements", name, maxArrayElems)
	}
}

// errorf records one semantic error.
func (c *checker) errorf(pos Pos, code, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pos: pos, Sev: SevError, Code: code, Msg: fmt.Sprintf(format, args...),
	})
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

// declare binds name in the innermost scope. A redeclaration is reported
// and the original symbol is returned so every reference keeps resolving
// to one consistent symbol.
func (c *checker) declare(pos Pos, name string, kind SymbolKind, t Type) *Symbol {
	top := c.scopes[len(c.scopes)-1]
	if prev, dup := top[name]; dup {
		c.errorf(pos, "redeclared", "%s redeclared in this scope", name)
		return prev
	}
	sym := &Symbol{Name: name, Kind: kind, Type: t, ID: c.nextID}
	c.nextID++
	top[name] = sym
	return sym
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

// undefined reports an unknown variable (once per name) and returns a
// placeholder int symbol so the rest of the expression still checks.
func (c *checker) undefined(pos Pos, name string) *Symbol {
	if sym, ok := c.undefVars[name]; ok {
		return sym
	}
	c.errorf(pos, "undefined", "undefined variable %s", name)
	sym := &Symbol{Name: name, Kind: SymLocal, Type: ScalarType(Int), ID: c.nextID}
	c.nextID++
	c.undefVars[name] = sym
	c.badSyms[sym] = true
	return sym
}

func (c *checker) checkFunc(f *FuncDecl) {
	c.fn = f
	c.push()
	defer c.pop()
	for i := range f.Params {
		p := &f.Params[i]
		// Unsized leading dimension: keep 0; the interpreter passes arrays
		// by reference so the callee only needs trailing dims for indexing.
		p.Sym = c.declare(f.Pos, p.Name, SymParam, p.Type)
	}
	c.checkBlock(f.Body, false)
}

func (c *checker) checkBlock(b *BlockStmt, newScope bool) {
	if newScope {
		c.push()
		defer c.pop()
	}
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s Stmt) {
	switch st := s.(type) {
	case *DeclStmt:
		if st.Init != nil {
			if t := c.exprType(st.Init); !t.IsScalar() {
				c.errorf(st.Pos, "type", "cannot initialize %s with an array value", st.Name)
			}
		}
		c.checkStorage(st.Pos, st.Name, st.Type, st.List)
		st.Sym = c.declare(st.Pos, st.Name, SymLocal, st.Type)
	case *ExprStmt:
		c.exprType(st.X)
	case *BlockStmt:
		c.checkBlock(st, true)
	case *IfStmt:
		c.exprType(st.Cond)
		c.checkBlock(st.Then, true)
		if st.Else != nil {
			c.checkStmt(st.Else)
		}
	case *ForStmt:
		c.push()
		defer c.pop()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			c.exprType(st.Cond)
		}
		if st.Post != nil {
			c.exprType(st.Post)
		}
		c.loop++
		defer func() { c.loop-- }()
		c.checkBlock(st.Body, true)
	case *WhileStmt:
		c.exprType(st.Cond)
		c.loop++
		defer func() { c.loop-- }()
		c.checkBlock(st.Body, true)
	case *ReturnStmt:
		if st.Value == nil {
			if c.fn.Result.Base != Void {
				c.errorf(st.Pos, "type", "function %s must return a %s value", c.fn.Name, c.fn.Result)
			}
			return
		}
		t := c.exprType(st.Value)
		if c.fn.Result.Base == Void {
			c.errorf(st.Pos, "type", "void function %s cannot return a value", c.fn.Name)
		} else if !t.IsScalar() {
			c.errorf(st.Pos, "type", "cannot return an array value")
		}
	case *BreakStmt:
		if c.loop == 0 {
			c.errorf(st.Pos, "control", "break outside a loop")
		}
	case *ContinueStmt:
		if c.loop == 0 {
			c.errorf(st.Pos, "control", "continue outside a loop")
		}
	default:
		c.errorf(Pos{}, "internal", "unhandled statement %T", s)
	}
}

// exprType resolves names inside e and returns its type. Errors are
// recorded on the checker; the returned type is a scalar placeholder that
// lets checking continue.
func (c *checker) exprType(e Expr) Type {
	switch ex := e.(type) {
	case *IntLit:
		return ScalarType(Int)
	case *FloatLit:
		return ScalarType(Float)
	case *VarRef:
		sym := c.lookup(ex.Name)
		if sym == nil {
			sym = c.undefined(ex.Pos, ex.Name)
		}
		ex.Sym = sym
		return sym.Type
	case *IndexExpr:
		t := c.exprType(ex.Array)
		elem := ScalarType(t.Base)
		if !t.IsArray() {
			// Suppress the follow-up when the base name was already reported
			// as undefined.
			if ex.Array.Sym == nil || !c.badSyms[ex.Array.Sym] {
				c.errorf(ex.Pos, "type", "%s is not an array", ex.Array.Name)
			}
		} else if len(ex.Indices) > len(t.Dims) {
			c.errorf(ex.Pos, "type", "too many indices for %s (%s)", ex.Array.Name, t)
		}
		for _, ix := range ex.Indices {
			if it := c.exprType(ix); !it.IsScalar() {
				c.errorf(ix.NodePos(), "type", "array index must be scalar")
			}
		}
		if !t.IsArray() || len(ex.Indices) >= len(t.Dims) {
			return elem
		}
		// Partial indexing of a 2-D array yields a row view (only valid as a
		// call argument); represent as 1-D array of the trailing dim.
		return Type{Base: t.Base, Dims: t.Dims[len(ex.Indices):]}
	case *UnaryExpr:
		t := c.exprType(ex.X)
		if !t.IsScalar() {
			c.errorf(ex.Pos, "type", "unary %s requires a scalar operand", ex.Op)
			t = ScalarType(Int)
		}
		if ex.Op == TokNot || ex.Op == TokTilde {
			return ScalarType(Int)
		}
		return t
	case *BinaryExpr:
		xt := c.exprType(ex.X)
		yt := c.exprType(ex.Y)
		if !xt.IsScalar() || !yt.IsScalar() {
			c.errorf(ex.Pos, "type", "binary %s requires scalar operands", ex.Op)
			return ScalarType(Int)
		}
		switch ex.Op {
		case TokEq, TokNeq, TokLt, TokGt, TokLe, TokGe, TokAndAnd, TokOrOr:
			return ScalarType(Int)
		case TokPercent, TokAmp, TokPipe, TokCaret, TokShl, TokShr:
			if xt.Base != Int || yt.Base != Int {
				c.errorf(ex.Pos, "type", "operator %s requires int operands", ex.Op)
			}
			return ScalarType(Int)
		default:
			if xt.Base == Float || yt.Base == Float {
				return ScalarType(Float)
			}
			return ScalarType(Int)
		}
	case *CondExpr:
		c.exprType(ex.Cond)
		tt := c.exprType(ex.Then)
		et := c.exprType(ex.Else)
		if tt.Base == Float || et.Base == Float {
			return ScalarType(Float)
		}
		return tt
	case *CallExpr:
		return c.callType(ex)
	case *AssignExpr:
		lt := c.exprType(ex.LHS)
		if !lt.IsScalar() {
			c.errorf(ex.Pos, "type", "cannot assign to an array as a whole")
			lt = ScalarType(Int)
		}
		if rt := c.exprType(ex.RHS); !rt.IsScalar() {
			c.errorf(ex.Pos, "type", "cannot assign an array value")
		} else if ex.Op != TokAssign && ex.Op != TokPlusEq && ex.Op != TokMinusEq &&
			ex.Op != TokStarEq && ex.Op != TokSlashEq {
			if lt.Base != Int || rt.Base != Int {
				c.errorf(ex.Pos, "type", "compound operator %s requires int operands", ex.Op)
			}
		}
		return lt
	case *IncDecExpr:
		t := c.exprType(ex.X)
		switch ex.X.(type) {
		case *VarRef, *IndexExpr:
		default:
			c.errorf(ex.Pos, "type", "%s requires a variable or array element", ex.Op)
		}
		if !t.IsScalar() {
			c.errorf(ex.Pos, "type", "%s requires a scalar operand", ex.Op)
			t = ScalarType(Int)
		}
		return t
	case *CastExpr:
		if t := c.exprType(ex.X); !t.IsScalar() {
			c.errorf(ex.Pos, "type", "cannot cast an array value")
		}
		return ScalarType(ex.To)
	}
	c.errorf(Pos{}, "internal", "unhandled expression %T", e)
	return ScalarType(Int)
}

func (c *checker) callType(ex *CallExpr) Type {
	if arity, ok := Builtins[ex.Name]; ok {
		ex.Builtin = ex.Name
		if len(ex.Args) != arity {
			c.errorf(ex.Pos, "arity", "builtin %s expects %d argument(s), got %d", ex.Name, arity, len(ex.Args))
		}
		allInt := true
		for _, a := range ex.Args {
			t := c.exprType(a)
			if !t.IsScalar() {
				c.errorf(a.NodePos(), "type", "builtin %s requires scalar arguments", ex.Name)
				continue
			}
			if t.Base != Int {
				allInt = false
			}
		}
		switch ex.Name {
		case "abs", "min", "max":
			if allInt {
				return ScalarType(Int)
			}
			return ScalarType(Float)
		default:
			return ScalarType(Float)
		}
	}
	fn := c.prog.Func(ex.Name)
	if fn == nil {
		if !c.undefFuncs[ex.Name] {
			c.errorf(ex.Pos, "undefined", "call to undefined function %s", ex.Name)
			c.undefFuncs[ex.Name] = true
		}
		for _, a := range ex.Args {
			c.exprType(a)
		}
		return ScalarType(Int)
	}
	ex.Fn = fn
	if len(ex.Args) != len(fn.Params) {
		c.errorf(ex.Pos, "arity", "function %s expects %d argument(s), got %d", ex.Name, len(fn.Params), len(ex.Args))
	}
	for i, a := range ex.Args {
		at := c.exprType(a)
		if i >= len(fn.Params) {
			continue
		}
		pt := fn.Params[i].Type
		if pt.IsArray() != at.IsArray() {
			c.errorf(a.NodePos(), "type", "argument %d of %s: have %s, want %s", i+1, ex.Name, at, pt)
			continue
		}
		if pt.IsArray() {
			if pt.Base != at.Base {
				c.errorf(a.NodePos(), "type", "argument %d of %s: element type mismatch (%s vs %s)", i+1, ex.Name, at, pt)
			}
			if len(pt.Dims) != len(at.Dims) {
				c.errorf(a.NodePos(), "type", "argument %d of %s: rank mismatch (%s vs %s)", i+1, ex.Name, at, pt)
			} else {
				// Trailing dims must match exactly; a 0 (unsized) param dim
				// accepts any extent.
				for d := range pt.Dims {
					if pt.Dims[d] != 0 && pt.Dims[d] != at.Dims[d] {
						c.errorf(a.NodePos(), "type", "argument %d of %s: extent mismatch (%s vs %s)", i+1, ex.Name, at, pt)
						break
					}
				}
			}
			// Array arguments must be direct variable or row references so
			// that aliasing is trackable by the dependence analysis.
			switch a.(type) {
			case *VarRef, *IndexExpr:
			default:
				c.errorf(a.NodePos(), "type", "array argument %d of %s must be a variable", i+1, ex.Name)
			}
		}
	}
	return fn.Result
}
