package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/htg"
	"repro/internal/minic"
)

// This file re-derives statement memory footprints by concrete enumeration,
// independently of the dataflow package's interval/GCD/Banerjee section
// analysis. The HTG builder drops a dependence edge when the symbolic
// section tests prove the two statements touch disjoint array elements; the
// verifier refuses to take that on faith. Instead it re-executes the two
// statements abstractly — unrolling constant-bound loops, folding integer
// scalars, following calls — and collects the exact set of elements each
// one reads and writes. Only when the enumerated footprints are disjoint
// for every conflicting symbol is the missing edge excused. Anything the
// enumerator cannot pin down concretely (symbolic bounds, unknown index
// values, float-driven control flow, budget exhaustion) makes the proof
// fail, never succeed.
//
// Enumeration starts from an empty environment: scalar globals and values
// read out of arrays are unknown. Unknown branch conditions enumerate both
// arms (a footprint over-approximation, still sound for disjointness);
// unknown loop bounds or index expressions abort the proof.

// enumBudget bounds the number of expression evaluations one statement may
// spend before the enumerator gives up; enumMaxDepth bounds call nesting.
const (
	enumBudget   = 1 << 22
	enumMaxDepth = 64
)

// elemSet is a set of flat element offsets within one array.
type elemSet map[int]struct{}

// footprint is the enumerated memory footprint of one statement, keyed by
// the root symbol that owns the backing store.
type footprint struct {
	reads  map[*minic.Symbol]elemSet
	writes map[*minic.Symbol]elemSet
}

func (fp *footprint) add(sym *minic.Symbol, off int, write bool) {
	m := fp.reads
	if write {
		m = fp.writes
	}
	s, ok := m[sym]
	if !ok {
		s = make(elemSet)
		m[sym] = s
	}
	s[off] = struct{}{}
}

// eval is an abstract integer value: a known constant or unknown.
type eval struct {
	known bool
	i     int64
}

func known(i int64) eval { return eval{known: true, i: i} }

var unknown = eval{}

// arrRef is a view into an array: the owning root symbol, the flat offset
// of the view, and the view's dimensions (parameter dims may have an
// unsized leading extent of 0).
type arrRef struct {
	root *minic.Symbol
	off  int
	dims []int
}

// enumFrame is one function activation during enumeration.
type enumFrame struct {
	scalars map[*minic.Symbol]eval
	arrays  map[*minic.Symbol]arrRef
	ret     eval
}

func newEnumFrame() *enumFrame {
	return &enumFrame{scalars: make(map[*minic.Symbol]eval), arrays: make(map[*minic.Symbol]arrRef)}
}

type enumCtl int

const (
	enumNone enumCtl = iota
	enumBreak
	enumContinue
	enumReturn
)

type enumerator struct {
	fp      *footprint
	budget  int
	depth   int
	globals map[*minic.Symbol]eval // scalar globals assigned during enumeration
	failed  bool
}

// enumFootprint enumerates the concrete footprint of s. ok is false when
// the statement could not be fully enumerated; the footprint is then
// unusable for disjointness proofs.
func enumFootprint(s minic.Stmt) (*footprint, bool) {
	e := &enumerator{
		fp:      &footprint{reads: make(map[*minic.Symbol]elemSet), writes: make(map[*minic.Symbol]elemSet)},
		budget:  enumBudget,
		globals: make(map[*minic.Symbol]eval),
	}
	e.stmt(s, newEnumFrame())
	if e.failed {
		return nil, false
	}
	return e.fp, true
}

func (e *enumerator) fail() eval {
	e.failed = true
	return unknown
}

func (e *enumerator) tick() bool {
	e.budget--
	if e.budget < 0 {
		e.failed = true
	}
	return !e.failed
}

func (e *enumerator) stmt(s minic.Stmt, fr *enumFrame) enumCtl {
	if e.failed || !e.tick() {
		return enumNone
	}
	switch st := s.(type) {
	case *minic.DeclStmt:
		if st.Type.IsArray() {
			fr.arrays[st.Sym] = arrRef{root: st.Sym, dims: st.Sym.Type.Dims}
			for i := range st.List {
				e.expr(st.List[i], fr)
				e.fp.add(st.Sym, i, true)
			}
			return enumNone
		}
		if st.Init != nil {
			fr.scalars[st.Sym] = e.expr(st.Init, fr)
		} else {
			fr.scalars[st.Sym] = known(0)
		}
		return enumNone
	case *minic.ExprStmt:
		e.expr(st.X, fr)
		return enumNone
	case *minic.BlockStmt:
		return e.block(st, fr)
	case *minic.IfStmt:
		c := e.expr(st.Cond, fr)
		if c.known {
			if c.i != 0 {
				return e.block(st.Then, fr)
			}
			if st.Else != nil {
				return e.stmt(st.Else, fr)
			}
			return enumNone
		}
		var els minic.Stmt
		if st.Else != nil {
			els = st.Else
		}
		return e.bothBranches(st.Then, els, fr)
	case *minic.ForStmt:
		if st.Init != nil {
			e.stmt(st.Init, fr)
		}
		for !e.failed {
			if st.Cond != nil {
				c := e.expr(st.Cond, fr)
				if !c.known {
					e.fail()
					return enumNone
				}
				if c.i == 0 {
					break
				}
			}
			ctl := e.block(st.Body, fr)
			if ctl == enumBreak {
				break
			}
			if ctl == enumReturn {
				return enumReturn
			}
			if st.Post != nil {
				e.expr(st.Post, fr)
			}
			if !e.tick() {
				return enumNone
			}
		}
		return enumNone
	case *minic.WhileStmt:
		first := st.DoWhile
		for !e.failed {
			if !first {
				c := e.expr(st.Cond, fr)
				if !c.known {
					e.fail()
					return enumNone
				}
				if c.i == 0 {
					break
				}
			}
			first = false
			ctl := e.block(st.Body, fr)
			if ctl == enumBreak {
				break
			}
			if ctl == enumReturn {
				return enumReturn
			}
			if st.DoWhile {
				c := e.expr(st.Cond, fr)
				if !c.known {
					e.fail()
					return enumNone
				}
				if c.i == 0 {
					break
				}
			}
			if !e.tick() {
				return enumNone
			}
		}
		return enumNone
	case *minic.ReturnStmt:
		if st.Value != nil {
			fr.ret = e.expr(st.Value, fr)
		}
		return enumReturn
	case *minic.BreakStmt:
		return enumBreak
	case *minic.ContinueStmt:
		return enumContinue
	}
	e.fail()
	return enumNone
}

func (e *enumerator) block(b *minic.BlockStmt, fr *enumFrame) enumCtl {
	for _, s := range b.Stmts {
		if e.failed {
			return enumNone
		}
		if ctl := e.stmt(s, fr); ctl != enumNone {
			return ctl
		}
	}
	return enumNone
}

// bothBranches enumerates both arms of an unknown condition on cloned
// scalar environments and keeps only the scalar facts the arms agree on.
// Control flow escaping either arm (break/continue/return) cannot be
// merged and aborts the proof.
func (e *enumerator) bothBranches(then, els minic.Stmt, fr *enumFrame) enumCtl {
	savedScalars := cloneEvalMap(fr.scalars)
	savedGlobals := cloneEvalMap(e.globals)
	if ctl := e.stmt(then, fr); ctl != enumNone {
		e.fail()
		return enumNone
	}
	thenScalars, thenGlobals := fr.scalars, e.globals
	fr.scalars, e.globals = savedScalars, savedGlobals
	if els != nil {
		if ctl := e.stmt(els, fr); ctl != enumNone {
			e.fail()
			return enumNone
		}
	}
	fr.scalars = mergeEvalMaps(thenScalars, fr.scalars)
	e.globals = mergeEvalMaps(thenGlobals, e.globals)
	return enumNone
}

func cloneEvalMap(m map[*minic.Symbol]eval) map[*minic.Symbol]eval {
	out := make(map[*minic.Symbol]eval, len(m))
	//repolint:allow maprange — clone, order-insensitive.
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeEvalMaps keeps entries both maps agree on and demotes the rest to
// unknown.
func mergeEvalMaps(a, b map[*minic.Symbol]eval) map[*minic.Symbol]eval {
	out := make(map[*minic.Symbol]eval, len(a))
	//repolint:allow maprange — map merge, order-insensitive.
	for k, va := range a {
		if vb, ok := b[k]; ok && va.known && vb.known && va.i == vb.i {
			out[k] = va
		} else {
			out[k] = unknown
		}
	}
	//repolint:allow maprange — map merge, order-insensitive.
	for k := range b {
		if _, ok := out[k]; !ok {
			out[k] = unknown
		}
	}
	return out
}

// arrayOf resolves an array symbol to its view: frame bindings for locals
// and parameters, an identity view for globals.
func (e *enumerator) arrayOf(sym *minic.Symbol, fr *enumFrame) arrRef {
	if ref, ok := fr.arrays[sym]; ok {
		return ref
	}
	return arrRef{root: sym, dims: sym.Type.Dims}
}

// flatIndex evaluates a full index expression against a view and returns
// the flat offset into the root array. Unknown or out-of-range indices
// abort the proof.
func (e *enumerator) flatIndex(ref arrRef, ix *minic.IndexExpr, fr *enumFrame) (int, bool) {
	if len(ix.Indices) != len(ref.dims) {
		e.fail()
		return 0, false
	}
	off := 0
	for d, ie := range ix.Indices {
		iv := e.expr(ie, fr)
		if !iv.known {
			e.fail()
			return 0, false
		}
		i := int(iv.i)
		if i < 0 || (ref.dims[d] > 0 && i >= ref.dims[d]) {
			e.fail()
			return 0, false
		}
		stride := 1
		for _, d2 := range ref.dims[d+1:] {
			if d2 <= 0 {
				e.fail()
				return 0, false
			}
			stride *= d2
		}
		off += i * stride
	}
	total := ref.off + off
	if ref.root != nil && ref.root.Type.NumElems() > 0 && total >= ref.root.Type.NumElems() {
		e.fail()
		return 0, false
	}
	return total, true
}

func (e *enumerator) expr(x minic.Expr, fr *enumFrame) eval {
	if e.failed || !e.tick() {
		return unknown
	}
	switch ex := x.(type) {
	case *minic.IntLit:
		return known(ex.Value)
	case *minic.FloatLit:
		return unknown
	case *minic.VarRef:
		if ex.Sym.Type.IsArray() {
			// Bare array reference outside a call argument: nothing to do.
			return unknown
		}
		if v, ok := fr.scalars[ex.Sym]; ok {
			return v
		}
		if v, ok := e.globals[ex.Sym]; ok {
			return v
		}
		return unknown
	case *minic.IndexExpr:
		ref := e.arrayOf(ex.Array.Sym, fr)
		off, ok := e.flatIndex(ref, ex, fr)
		if !ok {
			return unknown
		}
		e.fp.add(ref.root, off, false)
		return unknown
	case *minic.UnaryExpr:
		v := e.expr(ex.X, fr)
		if !v.known {
			return unknown
		}
		switch ex.Op {
		case minic.TokMinus:
			return known(-v.i)
		case minic.TokPlus:
			return v
		case minic.TokNot:
			if v.i == 0 {
				return known(1)
			}
			return known(0)
		case minic.TokTilde:
			return known(^v.i)
		}
		return unknown
	case *minic.BinaryExpr:
		return e.binary(ex, fr)
	case *minic.CondExpr:
		c := e.expr(ex.Cond, fr)
		if c.known {
			if c.i != 0 {
				return e.expr(ex.Then, fr)
			}
			return e.expr(ex.Else, fr)
		}
		// Unknown selector: enumerate both arms for their accesses, merge
		// scalar effects conservatively.
		savedScalars := cloneEvalMap(fr.scalars)
		savedGlobals := cloneEvalMap(e.globals)
		e.expr(ex.Then, fr)
		thenScalars, thenGlobals := fr.scalars, e.globals
		fr.scalars, e.globals = savedScalars, savedGlobals
		e.expr(ex.Else, fr)
		fr.scalars = mergeEvalMaps(thenScalars, fr.scalars)
		e.globals = mergeEvalMaps(thenGlobals, e.globals)
		return unknown
	case *minic.CallExpr:
		return e.call(ex, fr)
	case *minic.AssignExpr:
		return e.assign(ex, fr)
	case *minic.IncDecExpr:
		return e.incDec(ex, fr)
	case *minic.CastExpr:
		v := e.expr(ex.X, fr)
		if ex.To == minic.Int && v.known {
			return v
		}
		return unknown
	}
	e.fail()
	return unknown
}

func (e *enumerator) binary(ex *minic.BinaryExpr, fr *enumFrame) eval {
	if ex.Op == minic.TokAndAnd || ex.Op == minic.TokOrOr {
		x := e.expr(ex.X, fr)
		if x.known {
			if ex.Op == minic.TokAndAnd && x.i == 0 {
				return known(0)
			}
			if ex.Op == minic.TokOrOr && x.i != 0 {
				return known(1)
			}
			y := e.expr(ex.Y, fr)
			if !y.known {
				return unknown
			}
			if y.i != 0 {
				return known(1)
			}
			return known(0)
		}
		// Unknown left side: the right side may or may not run; enumerate
		// it for footprint coverage but discard its scalar effects only if
		// it has none we can represent — conservatively merge.
		savedScalars := cloneEvalMap(fr.scalars)
		savedGlobals := cloneEvalMap(e.globals)
		e.expr(ex.Y, fr)
		fr.scalars = mergeEvalMaps(savedScalars, fr.scalars)
		e.globals = mergeEvalMaps(savedGlobals, e.globals)
		return unknown
	}
	x := e.expr(ex.X, fr)
	y := e.expr(ex.Y, fr)
	if e.failed || !x.known || !y.known {
		return unknown
	}
	b2i := func(b bool) eval {
		if b {
			return known(1)
		}
		return known(0)
	}
	switch ex.Op {
	case minic.TokPlus:
		return known(x.i + y.i)
	case minic.TokMinus:
		return known(x.i - y.i)
	case minic.TokStar:
		return known(x.i * y.i)
	case minic.TokSlash:
		if y.i == 0 {
			return e.fail()
		}
		return known(x.i / y.i)
	case minic.TokPercent:
		if y.i == 0 {
			return e.fail()
		}
		return known(x.i % y.i)
	case minic.TokAmp:
		return known(x.i & y.i)
	case minic.TokPipe:
		return known(x.i | y.i)
	case minic.TokCaret:
		return known(x.i ^ y.i)
	case minic.TokShl:
		return known(x.i << uint(y.i&63))
	case minic.TokShr:
		return known(x.i >> uint(y.i&63))
	case minic.TokEq:
		return b2i(x.i == y.i)
	case minic.TokNeq:
		return b2i(x.i != y.i)
	case minic.TokLt:
		return b2i(x.i < y.i)
	case minic.TokGt:
		return b2i(x.i > y.i)
	case minic.TokLe:
		return b2i(x.i <= y.i)
	case minic.TokGe:
		return b2i(x.i >= y.i)
	}
	return unknown
}

func (e *enumerator) assign(ex *minic.AssignExpr, fr *enumFrame) eval {
	rhs := e.expr(ex.RHS, fr)
	switch lhs := ex.LHS.(type) {
	case *minic.VarRef:
		out := rhs
		if ex.Op != minic.TokAssign {
			cur := e.expr(lhs, fr)
			out = e.foldCompound(ex.Op, cur, rhs)
		}
		if lhs.Sym.Type.Base == minic.Float {
			out = unknown // floats are not tracked
		}
		e.setScalar(lhs.Sym, out, fr)
		return out
	case *minic.IndexExpr:
		ref := e.arrayOf(lhs.Array.Sym, fr)
		off, ok := e.flatIndex(ref, lhs, fr)
		if !ok {
			return unknown
		}
		if ex.Op != minic.TokAssign {
			e.fp.add(ref.root, off, false)
		}
		e.fp.add(ref.root, off, true)
		return unknown
	}
	e.fail()
	return unknown
}

func (e *enumerator) setScalar(sym *minic.Symbol, v eval, fr *enumFrame) {
	if _, ok := fr.scalars[sym]; ok {
		fr.scalars[sym] = v
		return
	}
	e.globals[sym] = v
}

func (e *enumerator) foldCompound(op minic.TokenKind, cur, rhs eval) eval {
	if !cur.known || !rhs.known {
		return unknown
	}
	switch op {
	case minic.TokPlusEq:
		return known(cur.i + rhs.i)
	case minic.TokMinusEq:
		return known(cur.i - rhs.i)
	case minic.TokStarEq:
		return known(cur.i * rhs.i)
	case minic.TokSlashEq:
		if rhs.i == 0 {
			return e.fail()
		}
		return known(cur.i / rhs.i)
	case minic.TokPercentEq:
		if rhs.i == 0 {
			return e.fail()
		}
		return known(cur.i % rhs.i)
	case minic.TokShlEq:
		return known(cur.i << uint(rhs.i&63))
	case minic.TokShrEq:
		return known(cur.i >> uint(rhs.i&63))
	case minic.TokAndEq:
		return known(cur.i & rhs.i)
	case minic.TokOrEq:
		return known(cur.i | rhs.i)
	case minic.TokXorEq:
		return known(cur.i ^ rhs.i)
	}
	return unknown
}

func (e *enumerator) incDec(ex *minic.IncDecExpr, fr *enumFrame) eval {
	delta := int64(1)
	if ex.Op == minic.TokDec {
		delta = -1
	}
	switch lhs := ex.X.(type) {
	case *minic.VarRef:
		cur := e.expr(lhs, fr)
		out := unknown
		if cur.known {
			out = known(cur.i + delta)
		}
		e.setScalar(lhs.Sym, out, fr)
		return out
	case *minic.IndexExpr:
		ref := e.arrayOf(lhs.Array.Sym, fr)
		off, ok := e.flatIndex(ref, lhs, fr)
		if !ok {
			return unknown
		}
		e.fp.add(ref.root, off, false)
		e.fp.add(ref.root, off, true)
		return unknown
	}
	e.fail()
	return unknown
}

func (e *enumerator) call(ex *minic.CallExpr, fr *enumFrame) eval {
	if ex.Builtin != "" {
		for _, a := range ex.Args {
			e.expr(a, fr)
		}
		return unknown
	}
	if ex.Fn == nil {
		e.fail()
		return unknown
	}
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > enumMaxDepth {
		e.fail()
		return unknown
	}
	callee := newEnumFrame()
	for i := range ex.Fn.Params {
		p := &ex.Fn.Params[i]
		if !p.Type.IsArray() {
			callee.scalars[p.Sym] = e.expr(ex.Args[i], fr)
			continue
		}
		ref, ok := e.argRef(ex.Args[i], p, fr)
		if !ok {
			return unknown
		}
		callee.arrays[p.Sym] = ref
	}
	e.stmt(ex.Fn.Body, callee)
	return callee.ret
}

// argRef resolves an array argument to a view on the caller's array: the
// whole array for a bare reference, a sub-array with a concrete offset for
// a partial (row) index.
func (e *enumerator) argRef(a minic.Expr, p *minic.Param, fr *enumFrame) (arrRef, bool) {
	switch arg := a.(type) {
	case *minic.VarRef:
		ref := e.arrayOf(arg.Sym, fr)
		return arrRef{root: ref.root, off: ref.off, dims: p.Type.Dims}, true
	case *minic.IndexExpr:
		base := e.arrayOf(arg.Array.Sym, fr)
		if len(arg.Indices) >= len(base.dims) {
			e.fail()
			return arrRef{}, false
		}
		off := base.off
		for d, ie := range arg.Indices {
			iv := e.expr(ie, fr)
			if !iv.known || iv.i < 0 || (base.dims[d] > 0 && iv.i >= int64(base.dims[d])) {
				e.fail()
				return arrRef{}, false
			}
			stride := 1
			for _, d2 := range base.dims[d+1:] {
				if d2 <= 0 {
					e.fail()
					return arrRef{}, false
				}
				stride *= d2
			}
			off += int(iv.i) * stride
		}
		return arrRef{root: base.root, off: off, dims: p.Type.Dims}, true
	}
	e.fail()
	return arrRef{}, false
}

// disjointSets reports whether two element sets share no offset.
func disjointSets(a, b elemSet) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	//repolint:allow maprange — membership probe, order-insensitive.
	for off := range a {
		if _, ok := b[off]; ok {
			return false
		}
	}
	return true
}

// footprintOf memoizes enumeration per statement (nil = enumeration
// failed).
func (v *verifier) footprintOf(s minic.Stmt) (*footprint, bool) {
	if v.fps == nil {
		v.fps = make(map[minic.Stmt]*footprint)
	}
	fp, seen := v.fps[s]
	if !seen {
		fp, _ = enumFootprint(s)
		v.fps[s] = fp
	}
	return fp, fp != nil
}

// conflictDisjoint checks one direction of a conflict: every symbol both
// written by a and touched per bAcc must be an array whose enumerated
// element sets are disjoint.
func conflictDisjoint(syms []*minic.Symbol, aw, br map[*minic.Symbol]elemSet) bool {
	for _, sym := range syms {
		if !sym.Type.IsArray() {
			return false // scalar conflicts have no sections to compare
		}
		if !disjointSets(aw[sym], br[sym]) {
			return false
		}
	}
	return true
}

// sectionExcused reports whether the conflict DependsOn sees between a and
// b is refuted by independent concrete enumeration: both statements
// enumerate fully and every conflicting symbol's element sets are disjoint
// for all three dependence kinds (flow, anti, output).
func (v *verifier) sectionExcused(a, b *htg.Node) bool {
	if a == nil || b == nil || a.Stmt == nil || b.Stmt == nil || a.Acc == nil || b.Acc == nil {
		return false
	}
	fa, aok := v.footprintOf(a.Stmt)
	fb, bok := v.footprintOf(b.Stmt)
	if !aok || !bok {
		return false
	}
	return conflictDisjoint(a.Acc.Writes.Intersect(b.Acc.Reads), fa.writes, fb.reads) &&
		conflictDisjoint(a.Acc.Reads.Intersect(b.Acc.Writes), fa.reads, fb.writes) &&
		conflictDisjoint(a.Acc.Writes.Intersect(b.Acc.Writes), fa.writes, fb.writes)
}

// VerifyGraphSections re-proves every dependence edge the section analysis
// dropped during HTG construction, using the concrete enumerator as a
// second, independent implementation. A dropped edge the enumerator cannot
// re-prove disjoint is reported as a violation — the graph may be missing
// a real ordering constraint.
func VerifyGraphSections(g *htg.Graph) []Violation {
	v := &verifier{seen: map[*core.Solution]bool{}}
	for _, d := range g.Dropped {
		if !v.sectionExcused(d.From, d.To) {
			v.out = append(v.out, Violation{
				Node: d.From.Parent,
				Kind: "section",
				Msg: fmt.Sprintf("dropped %s dependence %s -> %s cannot be re-proven disjoint by enumeration",
					d.Kind, d.From.Label, d.To.Label),
			})
		}
	}
	return v.out
}
