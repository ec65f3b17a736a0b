package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/minic"
)

// exprType mirrors the checker's typing rules (the program is checked, so
// symbols are resolved; we only need the int/float distinction).
func exprType(e minic.Expr) minic.BasicKind {
	switch ex := e.(type) {
	case *minic.IntLit:
		return minic.Int
	case *minic.FloatLit:
		return minic.Float
	case *minic.VarRef:
		return ex.Sym.Type.Base
	case *minic.IndexExpr:
		return ex.Array.Sym.Type.Base
	case *minic.UnaryExpr:
		if ex.Op == minic.TokNot || ex.Op == minic.TokTilde {
			return minic.Int
		}
		return exprType(ex.X)
	case *minic.BinaryExpr:
		switch ex.Op {
		case minic.TokEq, minic.TokNeq, minic.TokLt, minic.TokGt, minic.TokLe,
			minic.TokGe, minic.TokAndAnd, minic.TokOrOr, minic.TokPercent,
			minic.TokAmp, minic.TokPipe, minic.TokCaret, minic.TokShl, minic.TokShr:
			return minic.Int
		}
		if exprType(ex.X) == minic.Float || exprType(ex.Y) == minic.Float {
			return minic.Float
		}
		return minic.Int
	case *minic.CondExpr:
		if exprType(ex.Then) == minic.Float || exprType(ex.Else) == minic.Float {
			return minic.Float
		}
		return exprType(ex.Then)
	case *minic.CallExpr:
		if ex.Fn != nil {
			return ex.Fn.Result.Base
		}
		switch ex.Builtin {
		case "abs", "min", "max":
			for _, a := range ex.Args {
				if exprType(a) == minic.Float {
					return minic.Float
				}
			}
			return minic.Int
		}
		return minic.Float
	case *minic.CastExpr:
		return ex.To
	}
	return minic.Int
}

// expr renders e as a Go expression of its natural type (int64 or float64).
func (g *Generator) expr(e minic.Expr) string {
	switch ex := e.(type) {
	case *minic.IntLit:
		return fmt.Sprintf("int64(%d)", ex.Value)
	case *minic.FloatLit:
		s := strconv.FormatFloat(ex.Value, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return "float64(" + s + ")"
	case *minic.VarRef:
		return g.rename(ex.Sym)
	case *minic.IndexExpr:
		var sb strings.Builder
		sb.WriteString(g.rename(ex.Array.Sym))
		for _, ix := range ex.Indices {
			fmt.Fprintf(&sb, "[%s]", g.exprConv(ix, minic.Int))
		}
		return sb.String()
	case *minic.UnaryExpr:
		switch ex.Op {
		case minic.TokMinus:
			return "(-" + g.expr(ex.X) + ")"
		case minic.TokNot:
			return fmt.Sprintf("b2i(!(%s))", g.cond(ex.X))
		case minic.TokTilde:
			return fmt.Sprintf("(^%s)", g.exprConv(ex.X, minic.Int))
		}
	case *minic.BinaryExpr:
		return g.binary(ex)
	case *minic.CondExpr:
		t := exprType(ex)
		return fmt.Sprintf("tern(%s, func() %s { return %s }, func() %s { return %s })",
			g.cond(ex.Cond), goScalar(t), g.exprConv(ex.Then, t), goScalar(t), g.exprConv(ex.Else, t))
	case *minic.CallExpr:
		return g.call(ex)
	case *minic.CastExpr:
		return g.exprConv(ex.X, ex.To)
	}
	return "0"
}

func goScalar(k minic.BasicKind) string {
	if k == minic.Float {
		return "float64"
	}
	return "int64"
}

// exprConv renders e converted to the requested scalar kind, mirroring the
// interpreter's AsInt/AsFloat semantics (float->int truncates).
func (g *Generator) exprConv(e minic.Expr, to minic.BasicKind) string {
	from := exprType(e)
	s := g.expr(e)
	if from == to {
		return s
	}
	if to == minic.Float {
		return "float64(" + s + ")"
	}
	return "int64(" + s + ")"
}

// cond renders e as a Go boolean.
func (g *Generator) cond(e minic.Expr) string {
	switch ex := e.(type) {
	case *minic.BinaryExpr:
		switch ex.Op {
		case minic.TokEq, minic.TokNeq, minic.TokLt, minic.TokGt, minic.TokLe, minic.TokGe:
			op := map[minic.TokenKind]string{
				minic.TokEq: "==", minic.TokNeq: "!=", minic.TokLt: "<",
				minic.TokGt: ">", minic.TokLe: "<=", minic.TokGe: ">=",
			}[ex.Op]
			k := minic.Int
			if exprType(ex.X) == minic.Float || exprType(ex.Y) == minic.Float {
				k = minic.Float
			}
			return fmt.Sprintf("(%s %s %s)", g.exprConv(ex.X, k), op, g.exprConv(ex.Y, k))
		case minic.TokAndAnd:
			return fmt.Sprintf("(%s && %s)", g.cond(ex.X), g.cond(ex.Y))
		case minic.TokOrOr:
			return fmt.Sprintf("(%s || %s)", g.cond(ex.X), g.cond(ex.Y))
		}
	case *minic.UnaryExpr:
		if ex.Op == minic.TokNot {
			return "(!" + g.cond(ex.X) + ")"
		}
	case *minic.IntLit:
		if ex.Value != 0 {
			return "true"
		}
		return "false"
	}
	if exprType(e) == minic.Float {
		return "(" + g.expr(e) + " != 0.0)"
	}
	return "(" + g.expr(e) + " != 0)"
}

func (g *Generator) binary(ex *minic.BinaryExpr) string {
	switch ex.Op {
	case minic.TokEq, minic.TokNeq, minic.TokLt, minic.TokGt, minic.TokLe,
		minic.TokGe, minic.TokAndAnd, minic.TokOrOr:
		return "b2i(" + g.cond(ex) + ")"
	case minic.TokPercent:
		return fmt.Sprintf("(%s %% %s)", g.exprConv(ex.X, minic.Int), g.exprConv(ex.Y, minic.Int))
	}
	k := minic.Int
	if exprType(ex.X) == minic.Float || exprType(ex.Y) == minic.Float {
		k = minic.Float
	}
	x, y := g.exprConv(ex.X, k), g.exprConv(ex.Y, k)
	switch ex.Op {
	case minic.TokPlus:
		return fmt.Sprintf("(%s + %s)", x, y)
	case minic.TokMinus:
		return fmt.Sprintf("(%s - %s)", x, y)
	case minic.TokStar:
		return fmt.Sprintf("(%s * %s)", x, y)
	case minic.TokSlash:
		return fmt.Sprintf("(%s / %s)", x, y)
	case minic.TokAmp:
		return fmt.Sprintf("(%s & %s)", g.exprConv(ex.X, minic.Int), g.exprConv(ex.Y, minic.Int))
	case minic.TokPipe:
		return fmt.Sprintf("(%s | %s)", g.exprConv(ex.X, minic.Int), g.exprConv(ex.Y, minic.Int))
	case minic.TokCaret:
		return fmt.Sprintf("(%s ^ %s)", g.exprConv(ex.X, minic.Int), g.exprConv(ex.Y, minic.Int))
	case minic.TokShl:
		return fmt.Sprintf("(%s << (uint64(%s) & 63))", g.exprConv(ex.X, minic.Int), g.exprConv(ex.Y, minic.Int))
	case minic.TokShr:
		return fmt.Sprintf("(%s >> (uint64(%s) & 63))", g.exprConv(ex.X, minic.Int), g.exprConv(ex.Y, minic.Int))
	}
	return "0"
}

func (g *Generator) call(ex *minic.CallExpr) string {
	if ex.Builtin != "" {
		return g.builtin(ex)
	}
	args := make([]string, len(ex.Args))
	for i, a := range ex.Args {
		p := ex.Fn.Params[i]
		if p.Type.IsArray() {
			if vr, isVar := a.(*minic.VarRef); isVar && vr.Sym.Kind == minic.SymParam {
				args[i] = g.expr(a) // already a pointer inside the callee
			} else {
				args[i] = "&" + g.expr(a)
			}
			continue
		}
		args[i] = g.exprConv(a, p.Type.Base)
	}
	return fmt.Sprintf("%s(%s)", gname(ex.Fn.Name), strings.Join(args, ", "))
}

func (g *Generator) builtin(ex *minic.CallExpr) string {
	g.usesMath = true
	f := func(i int) string { return g.exprConv(ex.Args[i], minic.Float) }
	switch ex.Builtin {
	case "fabs":
		return "math.Abs(" + f(0) + ")"
	case "sqrt":
		return "math.Sqrt(" + f(0) + ")"
	case "sin":
		return "math.Sin(" + f(0) + ")"
	case "cos":
		return "math.Cos(" + f(0) + ")"
	case "tan":
		return "math.Tan(" + f(0) + ")"
	case "exp":
		return "math.Exp(" + f(0) + ")"
	case "log":
		return "math.Log(" + f(0) + ")"
	case "floor":
		return "math.Floor(" + f(0) + ")"
	case "ceil":
		return "math.Ceil(" + f(0) + ")"
	case "pow":
		return "math.Pow(" + f(0) + ", " + f(1) + ")"
	case "atan":
		return "math.Atan(" + f(0) + ")"
	case "atan2":
		return "math.Atan2(" + f(0) + ", " + f(1) + ")"
	case "abs", "min", "max":
		allInt := true
		for _, a := range ex.Args {
			if exprType(a) == minic.Float {
				allInt = false
			}
		}
		if allInt {
			switch ex.Builtin {
			case "abs":
				return "iabs(" + g.exprConv(ex.Args[0], minic.Int) + ")"
			case "min":
				return fmt.Sprintf("imin(%s, %s)", g.exprConv(ex.Args[0], minic.Int), g.exprConv(ex.Args[1], minic.Int))
			default:
				return fmt.Sprintf("imax(%s, %s)", g.exprConv(ex.Args[0], minic.Int), g.exprConv(ex.Args[1], minic.Int))
			}
		}
		switch ex.Builtin {
		case "abs":
			return "math.Abs(" + f(0) + ")"
		case "min":
			return "math.Min(" + f(0) + ", " + f(1) + ")"
		default:
			return "math.Max(" + f(0) + ", " + f(1) + ")"
		}
	}
	return "0"
}

// rename maps a symbol to its Go name, honoring active substitutions
// (reduction partials in chunk bodies).
func (g *Generator) rename(sym *minic.Symbol) string {
	if g.renames != nil {
		if r, ok := g.renames[sym]; ok {
			return r
		}
	}
	return gname(sym.Name)
}

// stmt emits one statement.
func (g *Generator) stmt(s minic.Stmt) error {
	switch st := s.(type) {
	case *minic.DeclStmt:
		name := g.rename(st.Sym)
		g.l("var %s %s", name, goType(st.Type))
		switch {
		case st.Init != nil:
			g.l("%s = %s", name, g.exprConv(st.Init, st.Type.Base))
		case st.List != nil:
			for i, e := range st.List {
				if len(st.Type.Dims) == 2 {
					g.l("%s[%d][%d] = %s", name, i/st.Type.Dims[1], i%st.Type.Dims[1], g.exprConv(e, st.Type.Base))
				} else {
					g.l("%s[%d] = %s", name, i, g.exprConv(e, st.Type.Base))
				}
			}
		}
		g.l("_ = %s", name)
		return nil
	case *minic.ExprStmt:
		return g.exprStmt(st.X)
	case *minic.BlockStmt:
		g.l("{")
		g.ind++
		for _, inner := range st.Stmts {
			if err := g.stmt(inner); err != nil {
				return err
			}
		}
		g.ind--
		g.l("}")
		return nil
	case *minic.IfStmt:
		g.l("if %s {", g.cond(st.Cond))
		g.ind++
		for _, inner := range st.Then.Stmts {
			if err := g.stmt(inner); err != nil {
				return err
			}
		}
		g.ind--
		if st.Else != nil {
			g.l("} else {")
			g.ind++
			if err := g.stmt(st.Else); err != nil {
				return err
			}
			g.ind--
		}
		g.l("}")
		return nil
	case *minic.ForStmt:
		return g.forStmt(st)
	case *minic.WhileStmt:
		if st.DoWhile {
			g.l("for {")
			g.ind++
			for _, inner := range st.Body.Stmts {
				if err := g.stmt(inner); err != nil {
					return err
				}
			}
			g.l("if !%s {", g.cond(st.Cond))
			g.line(g.ind+1, "break")
			g.l("}")
			g.ind--
			g.l("}")
			return nil
		}
		g.l("for %s {", g.cond(st.Cond))
		g.ind++
		for _, inner := range st.Body.Stmts {
			if err := g.stmt(inner); err != nil {
				return err
			}
		}
		g.ind--
		g.l("}")
		return nil
	case *minic.ReturnStmt:
		if st.Value == nil {
			g.l("return")
		} else {
			g.l("return %s", g.exprConv(st.Value, g.curFnResult))
		}
		return nil
	case *minic.BreakStmt:
		g.l("break")
		return nil
	case *minic.ContinueStmt:
		g.l("continue")
		return nil
	}
	return fmt.Errorf("codegen: unhandled statement %T", s)
}

// exprStmt emits assignments and increments as Go statements.
func (g *Generator) exprStmt(e minic.Expr) error {
	switch ex := e.(type) {
	case *minic.AssignExpr:
		lhs := g.expr(ex.LHS)
		lk := exprType(ex.LHS)
		if ex.Op == minic.TokAssign {
			g.l("%s = %s", lhs, g.exprConv(ex.RHS, lk))
			return nil
		}
		bin := &minic.BinaryExpr{Op: compoundBase(ex.Op), X: ex.LHS, Y: ex.RHS}
		g.l("%s = %s", lhs, g.exprConv(bin, lk))
		return nil
	case *minic.IncDecExpr:
		lhs := g.expr(ex.X)
		op := "+"
		if ex.Op == minic.TokDec {
			op = "-"
		}
		if exprType(ex.X) == minic.Float {
			g.l("%s = %s %s 1.0", lhs, lhs, op)
		} else {
			g.l("%s = %s %s 1", lhs, lhs, op)
		}
		return nil
	case *minic.CallExpr:
		g.l("%s", g.call(ex))
		return nil
	}
	// Pure expression statement: evaluate into the void.
	g.l("_ = %s", g.expr(e))
	return nil
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

func (g *Generator) forStmt(st *minic.ForStmt) error {
	g.l("{")
	g.ind++
	if st.Init != nil {
		if err := g.stmt(st.Init); err != nil {
			return err
		}
	}
	cond := "true"
	if st.Cond != nil {
		cond = g.cond(st.Cond)
	}
	g.l("for %s {", cond)
	g.ind++
	for _, inner := range st.Body.Stmts {
		if err := g.stmt(inner); err != nil {
			return err
		}
	}
	if st.Post != nil {
		if err := g.exprStmt(st.Post); err != nil {
			return err
		}
	}
	g.ind--
	g.l("}")
	g.ind--
	g.l("}")
	return nil
}
