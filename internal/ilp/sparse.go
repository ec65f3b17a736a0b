package ilp

import "math"

// prob is the compiled sparse form of a Model, built once per Solve and
// shared read-only by every branch-and-bound node.
//
// All constraints are equalities over an extended column space: row i of
// the original model becomes  a_i·x + s_i = b_i  where s_i is the row's
// slack column with bounds chosen by the original sense:
//
//	LE:  s_i ∈ [0, +inf)
//	GE:  s_i ∈ (-inf, 0]
//	EQ:  s_i ∈ [0, 0]
//
// Structural columns are stored compressed (CSC); slack columns are unit
// vectors and never materialized. Rows are equilibrated (scaled by their
// largest structural coefficient magnitude) so nanosecond-scale cost rows
// and unit assignment rows meet the same tolerances.
type prob struct {
	m       int // rows
	nStruct int // structural columns (the model's variables)
	n       int // total columns: nStruct + m (one slack per row)

	// CSC storage of the structural part of A (after row scaling).
	colPtr []int32
	rowIdx []int32
	colVal []float64

	// CSR mirror of the same entries, for row-wise pricing: the priced
	// row rho = eᵣB⁻ᵀ is sparse, so alpha = rho·[A|I] is scattered from
	// rho's nonzero rows instead of dotted against every column.
	rowPtr []int32
	rowCol []int32
	rowVal []float64

	obj []float64 // structural objective coefficients (slacks cost 0)
	b   []float64 // scaled right-hand sides

	// Default bounds per column (structural from the model, slacks from
	// the sense). Branch-and-bound nodes override the structural part.
	lo, hi []float64

	integral []bool // structural columns required integral
}

// slackCol reports whether column j is a slack and for which row.
func (p *prob) slackCol(j int) (int, bool) {
	if j >= p.nStruct {
		return j - p.nStruct, true
	}
	return -1, false
}

// compile builds the sparse problem from a model.
func compile(mod *Model) *prob {
	m := len(mod.Cons)
	ns := len(mod.Vars)
	p := &prob{
		m:        m,
		nStruct:  ns,
		n:        ns + m,
		obj:      make([]float64, ns),
		b:        make([]float64, m),
		lo:       make([]float64, ns+m),
		hi:       make([]float64, ns+m),
		integral: make([]bool, ns),
	}
	for j, v := range mod.Vars {
		p.obj[j] = v.Obj
		p.lo[j] = v.Lo
		p.hi[j] = v.Hi
		p.integral[j] = v.Kind != Continuous
	}
	// Per-row scale: 1/maxabs coefficient when the row is badly scaled.
	scale := make([]float64, m)
	for i := range mod.Cons {
		maxc := 0.0
		for _, t := range mod.Cons[i].Terms {
			if a := math.Abs(t.Coeff); a > maxc {
				maxc = a
			}
		}
		scale[i] = 1
		if maxc > 0 && (maxc > 16 || maxc < 1.0/16) {
			scale[i] = 1 / maxc
		}
	}
	// Count column occupancy, then fill CSC.
	counts := make([]int32, ns)
	for i := range mod.Cons {
		for _, t := range mod.Cons[i].Terms {
			counts[t.Var]++
		}
	}
	p.colPtr = make([]int32, ns+1)
	for j := 0; j < ns; j++ {
		p.colPtr[j+1] = p.colPtr[j] + counts[j]
	}
	nnz := p.colPtr[ns]
	p.rowIdx = make([]int32, nnz)
	p.colVal = make([]float64, nnz)
	next := make([]int32, ns)
	copy(next, p.colPtr[:ns])
	for i := range mod.Cons {
		c := &mod.Cons[i]
		for _, t := range c.Terms {
			at := next[t.Var]
			p.rowIdx[at] = int32(i)
			p.colVal[at] = t.Coeff * scale[i]
			next[t.Var] = at + 1
		}
		p.b[i] = c.RHS * scale[i]
		si := ns + i
		switch c.Sense {
		case LE:
			p.lo[si], p.hi[si] = 0, math.Inf(1)
		case GE:
			p.lo[si], p.hi[si] = math.Inf(-1), 0
		case EQ:
			p.lo[si], p.hi[si] = 0, 0
		}
	}
	p.buildCSR()
	return p
}

// buildCSR fills the row-major mirror from the CSC arrays. Column
// indices stay ascending within each row, so a row scatter accumulates
// alpha[j] in the same (ascending-row) term order as colDot — the two
// pricings produce bitwise-identical values.
func (p *prob) buildCSR() {
	counts := make([]int32, p.m)
	for _, i := range p.rowIdx {
		counts[i]++
	}
	p.rowPtr = make([]int32, p.m+1)
	for i := 0; i < p.m; i++ {
		p.rowPtr[i+1] = p.rowPtr[i] + counts[i]
	}
	nnz := p.rowPtr[p.m]
	p.rowCol = make([]int32, nnz)
	p.rowVal = make([]float64, nnz)
	next := make([]int32, p.m)
	copy(next, p.rowPtr[:p.m])
	for j := 0; j < p.nStruct; j++ {
		for at := p.colPtr[j]; at < p.colPtr[j+1]; at++ {
			i := p.rowIdx[at]
			p.rowCol[next[i]] = int32(j)
			p.rowVal[next[i]] = p.colVal[at]
			next[i]++
		}
	}
}

// gatherCol scatters column j of [A|I] into the dense vector dst
// (len m), zeroing it first.
func (p *prob) gatherCol(j int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	if r, ok := p.slackCol(j); ok {
		dst[r] = 1
		return
	}
	for at := p.colPtr[j]; at < p.colPtr[j+1]; at++ {
		dst[p.rowIdx[at]] = p.colVal[at]
	}
}

// colDot returns rho · A_j for column j of [A|I].
func (p *prob) colDot(rho []float64, j int) float64 {
	if r, ok := p.slackCol(j); ok {
		return rho[r]
	}
	s := 0.0
	for at := p.colPtr[j]; at < p.colPtr[j+1]; at++ {
		s += rho[p.rowIdx[at]] * p.colVal[at]
	}
	return s
}
