package ilp

import (
	"errors"
	"math"
)

// luFactor maintains an invertible representation of the simplex basis
// matrix B: an LU factorization with partial pivoting, plus a
// product-form eta file for the pivots applied since the last
// refactorization. FTRAN solves Bx = v, BTRAN solves Bᵀy = v.
//
// Region-model bases are mostly slack unit columns, so L and U are
// mostly exact zeros, and a dense factor spends nearly all its time on
// them. This one keeps nonzeros only: the elimination walks per-row and
// per-column nonzero lists that grow on fill-in, row swaps are
// permutation updates, and the triangular solves scatter along the
// factor stored by column (FTRAN) and by row (BTRAN). Work is
// proportional to the factor's nonzeros, not to m².
//
// The arithmetic is dense Doolittle with partial pivoting — the largest
// |a| pivots, ties going to the smallest current position — restricted
// to nonzeros: every nonzero of L, U and of a solve's result receives the
// same operations in the same order as in the dense factor, so pivots
// and results agree bit for bit (an exact zero may differ in sign only).
// The dense factor is kept as the test oracle in luref_test.go.
type luFactor struct {
	m   int
	piv []int32 // row swaps applied during factorization

	// The factor, stored twice. Column k of L and U is
	// colNZ[colPtr[k]:colPtr[k+1]] by ascending position (row after
	// pivoting), with its diagonal at colDiag[k]: U before it, L after.
	// Row i is rowNZ[rowPtr[i]:rowPtr[i+1]] by ascending column, with
	// its diagonal at rowDiag[i]: L before it, U after. Exact zeros are
	// left out; nzBuf backs both stores (after urow).
	colPtr, colDiag []int32
	rowPtr, rowDiag []int32
	colNZ, rowNZ    []luNZ
	nzBuf           []luNZ

	// Elimination workspace, reused across factorizations. ents holds
	// the active matrix's entries, linked per row and per column from
	// rowHead/colHead (-1 ends a list); pos and rowAt map an original row
	// to its position and back. In one elimination step lcol lists column
	// k's entries at positions ≥ k, urow copies the pivot row's U part,
	// and colAt maps the columns of the row being multiplied to their
	// ents index + 1 (0: no entry), cleared again after the row. iw backs
	// piv and every m-length int32 array; urow is the head of nzBuf.
	ents             []luEnt
	rowHead, colHead []int32
	pos, rowAt       []int32
	lcol, colAt      []int32
	urow             []luNZ
	iw               []int32

	// lastP and lastBasis record what the LU part factorizes (lastP is
	// nil when nothing valid is held).
	lastP     *prob
	lastBasis []int32

	etas []etaVec
	// etaIdx/etaVal back every eta's idx/val slices; truncated (not
	// freed) at refactorization so steady-state updates allocate nothing.
	etaIdx []int32
	etaVal []float64
}

// luNZ is one stored factor entry: a position (column store) or a
// column (row store), and its value.
type luNZ struct {
	i int32
	v float64
}

// luEnt is one entry of the matrix under elimination, by original row
// and column, linked to the next entry of its row and of its column.
type luEnt struct {
	v            float64
	r, c         int32
	nextR, nextC int32
}

// etaVec is one product-form update: after pivoting column w into basis
// row r, B_new⁻¹ = E⁻¹ B_old⁻¹ with E⁻¹ the identity except column r.
type etaVec struct {
	r    int
	diag float64 // w_r
	idx  []int32 // rows i ≠ r with w_i ≠ 0
	val  []float64
}

// refactorEvery bounds the eta file length before a fresh factorization.
// Applying an eta is O(nnz), and the numerical-hygiene refresh in
// dual/primal catches drift well before it bites. The length was tuned
// when refactorizing was a dense O(m³/3) job; a refactorization now costs
// about as much as a few solves, but the length is kept because it fixes
// where rounding restarts, and so the pivots and plans.
const refactorEvery = 96

var errSingular = errors.New("singular basis")

// factorize computes the LU decomposition of the basis given by cols
// (one column index per row) gathered from p. Existing etas are dropped.
func (f *luFactor) factorize(p *prob, basis []int) error {
	m := p.m
	if f.iw == nil || f.m != m {
		f.alloc(m)
	}
	f.etas = f.etas[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	if f.holds(p, basis) {
		return nil
	}
	f.lastP = nil
	f.ents = f.ents[:0]
	for i := 0; i < m; i++ {
		f.rowHead[i], f.colHead[i] = -1, -1
		f.pos[i], f.rowAt[i] = int32(i), int32(i)
	}
	// Gather basis columns: entry (i, k) = A[i][basis[k]].
	for k, j := range basis {
		if r, ok := p.slackCol(j); ok {
			f.add(r, k, 1)
			continue
		}
		for at := p.colPtr[j]; at < p.colPtr[j+1]; at++ {
			f.add(int(p.rowIdx[at]), k, p.colVal[at])
		}
	}
	if err := f.eliminate(); err != nil {
		return err
	}
	f.build()
	for k, j := range basis {
		f.lastBasis[k] = int32(j)
	}
	f.lastP = p
	return nil
}

// holds reports whether the LU part already factorizes this basis of p.
// The LU depends on the basis columns alone, so refactorizing such a
// basis only has to drop the etas — which branch-and-bound restarts and
// the numerical-hygiene refresh ask for in about a third of all
// factorizations of a cold plan.
func (f *luFactor) holds(p *prob, basis []int) bool {
	if f.lastP != p {
		return false
	}
	for k, j := range basis {
		if f.lastBasis[k] != int32(j) {
			return false
		}
	}
	return true
}

// alloc sizes the workspace for an m-row basis, reusing the buffers of
// an earlier size when they are large enough.
func (f *luFactor) alloc(m int) {
	f.m = m
	f.lastP = nil
	n := 13*m + 2
	if cap(f.iw) < n {
		f.iw = make([]int32, n)
	}
	w := f.iw[:n]
	take := func(n int) []int32 {
		s := w[:n:n]
		w = w[n:]
		return s
	}
	f.piv = take(m)
	f.colPtr, f.colDiag = take(m+1), take(m)
	f.rowPtr, f.rowDiag = take(m+1), take(m)
	f.rowHead, f.colHead = take(m), take(m)
	f.pos, f.rowAt = take(m), take(m)
	f.lcol, f.colAt = take(m), take(m)
	clear(f.colAt)
	f.lastBasis = take(m)
	if cap(f.ents) < 4*m {
		f.ents = make([]luEnt, 0, 4*m)
	}
	if len(f.nzBuf) < 9*m {
		f.nzBuf = make([]luNZ, 9*m)
	}
	f.urow = f.nzBuf[:m:m]
}

// add appends entry (r, c) = v, which must not exist yet, and returns
// its ents index.
func (f *luFactor) add(r, c int, v float64) int32 {
	e := int32(len(f.ents))
	f.ents = append(f.ents, luEnt{v: v, r: int32(r), c: int32(c), nextR: f.rowHead[r], nextC: f.colHead[c]})
	f.rowHead[r], f.colHead[c] = e, e
	return e
}

// eliminate runs Doolittle's elimination with partial pivoting over the
// gathered entries. Step k walks column k's list once for the pivot and
// the rows to multiply, then updates each multiplied row at the pivot
// row's U entries only; a missing entry there is fill-in, created as
// zero first so it takes the same subtraction as a dense cell.
func (f *luFactor) eliminate() error {
	m := f.m
	pos, rowAt, lcol, colAt, urow := f.pos[:m], f.rowAt[:m], f.lcol[:m], f.colAt[:m], f.urow[:m]
	for k := 0; k < m; k++ {
		ents := f.ents // add below may grow it
		// The dense rule: the largest |a| at positions ≥ k, ties going to
		// the smallest position (position k when it holds the maximum).
		pr, pv, pe := k, 0.0, int32(-1)
		nl := 0
		for e := f.colHead[k]; e >= 0; e = ents[e].nextC {
			i := int(pos[ents[e].r])
			if i < k {
				continue
			}
			lcol[nl] = e
			nl++
			if a := math.Abs(ents[e].v); a > pv || a == pv && i < pr {
				pr, pv, pe = i, a, e
			}
		}
		if pv < 1e-11 {
			return errSingular
		}
		f.piv[k] = int32(pr)
		if pr != k {
			rk, rp := rowAt[k], rowAt[pr]
			rowAt[k], rowAt[pr] = rp, rk
			pos[rp], pos[rk] = int32(k), int32(pr)
		}
		prow := rowAt[k]
		n := 0
		for e := f.rowHead[prow]; e >= 0; e = ents[e].nextR {
			if c := ents[e].c; int(c) > k {
				urow[n] = luNZ{c, ents[e].v}
				n++
			}
		}
		inv := 1 / ents[pe].v
		for _, e := range lcol[:nl] {
			r := f.ents[e].r
			if r == prow {
				continue
			}
			l := f.ents[e].v * inv
			if l == 0 {
				continue
			}
			f.ents[e].v = l
			for x := f.rowHead[r]; x >= 0; x = f.ents[x].nextR {
				colAt[f.ents[x].c] = x + 1
			}
			for _, u := range urow[:n] {
				t := colAt[u.i] - 1
				if t < 0 {
					t = f.add(int(r), int(u.i), 0)
				}
				f.ents[t].v -= l * u.v
			}
			for x := f.rowHead[r]; x >= 0; x = f.ents[x].nextR {
				colAt[f.ents[x].c] = 0
			}
		}
	}
	return nil
}

// build stores the eliminated entries by column and by row, dropping
// exact zeros. Walking positions in order fills each column ascending,
// so column k's diagonal lands right after its U part; walking columns
// in order does the same for each row.
func (f *luFactor) build() {
	m := f.m
	ents, pos := f.ents, f.pos
	colPtr, rowPtr := f.colPtr[:m+1], f.rowPtr[:m+1]
	for i := range colPtr {
		colPtr[i], rowPtr[i] = 0, 0
	}
	for _, e := range ents {
		if e.v != 0 {
			colPtr[e.c+1]++
			rowPtr[pos[e.r]+1]++
		}
	}
	for i := 0; i < m; i++ {
		colPtr[i+1] += colPtr[i]
		rowPtr[i+1] += rowPtr[i]
	}
	nnz := int(colPtr[m])
	if len(f.nzBuf) < m+2*nnz {
		f.nzBuf = make([]luNZ, m+3*nnz)
		f.urow = f.nzBuf[:m:m]
	}
	colNZ, rowNZ := f.nzBuf[m:m+nnz], f.nzBuf[m+nnz:m+2*nnz]
	f.colNZ, f.rowNZ = colNZ, rowNZ
	next := f.lcol[:m]
	for i := range next {
		next[i] = colPtr[i]
	}
	for i, r := range f.rowAt[:m] {
		f.colDiag[i] = next[i]
		for e := f.rowHead[r]; e >= 0; e = ents[e].nextR {
			if v := ents[e].v; v != 0 {
				c := ents[e].c
				colNZ[next[c]] = luNZ{int32(i), v}
				next[c]++
			}
		}
	}
	for i := range next {
		next[i] = rowPtr[i]
	}
	for c, h := range f.colHead[:m] {
		f.rowDiag[c] = next[c]
		for e := h; e >= 0; e = ents[e].nextC {
			if v := ents[e].v; v != 0 {
				i := pos[ents[e].r]
				rowNZ[next[i]] = luNZ{int32(c), v}
				next[i]++
			}
		}
	}
}

// luSolve solves (LU)x = Pv in place. Both triangular phases run in
// scatter (outer-product) form down the columns of the factor, and a
// zero intermediate skips its whole column update. Simplex right-hand
// sides are sparse (the entering column for FTRAN), so most columns are
// skipped outright.
func (f *luFactor) luSolve(x []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		if p := int(f.piv[k]); p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// L y = Pv: y[k] known once reached; scatter down column k.
	for k := 0; k < m-1; k++ {
		t := x[k]
		if t == 0 {
			continue
		}
		for _, e := range f.colNZ[f.colDiag[k]+1 : f.colPtr[k+1]] {
			x[e.i] -= e.v * t
		}
	}
	// U x = y: backward scatter up column k.
	for k := m - 1; k >= 0; k-- {
		t := x[k]
		if t == 0 {
			continue
		}
		d := f.colDiag[k]
		t /= f.colNZ[d].v
		x[k] = t
		for _, e := range f.colNZ[f.colPtr[k]:d] {
			x[e.i] -= e.v * t
		}
	}
}

// luSolveT solves (LU)ᵀw = v and applies Pᵀ in place, in scatter form
// along the rows of the factor: row k of U (resp. L) is column k of Uᵀ
// (resp. Lᵀ). BTRAN right-hand sides are unit vectors, making the
// zero-skip the common case.
func (f *luFactor) luSolveT(x []float64) {
	m := f.m
	// Uᵀ z = v: forward scatter along row k of U.
	for k := 0; k < m; k++ {
		t := x[k]
		if t == 0 {
			continue
		}
		d := f.rowDiag[k]
		t /= f.rowNZ[d].v
		x[k] = t
		for _, e := range f.rowNZ[d+1 : f.rowPtr[k+1]] {
			x[e.i] -= e.v * t
		}
	}
	// Lᵀ w = z: backward scatter along row k of L (unit diagonal).
	for k := m - 1; k > 0; k-- {
		t := x[k]
		if t == 0 {
			continue
		}
		for _, e := range f.rowNZ[f.rowPtr[k]:f.rowDiag[k]] {
			x[e.i] -= e.v * t
		}
	}
	for k := m - 1; k >= 0; k-- {
		if p := int(f.piv[k]); p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
}

// ftran solves B x = v in place (LU solve, then the eta file in order).
func (f *luFactor) ftran(x []float64) {
	f.luSolve(x)
	for e := range f.etas {
		ev := &f.etas[e]
		t := x[ev.r] / ev.diag
		if t != 0 {
			for k, i := range ev.idx {
				x[i] -= ev.val[k] * t
			}
		}
		x[ev.r] = t
	}
}

// btran solves Bᵀ y = v in place (eta file transposed in reverse order,
// then the LU transpose solve).
func (f *luFactor) btran(x []float64) {
	for e := len(f.etas) - 1; e >= 0; e-- {
		ev := &f.etas[e]
		s := x[ev.r]
		for k, i := range ev.idx {
			s -= ev.val[k] * x[i]
		}
		x[ev.r] = s / ev.diag
	}
	f.luSolveT(x)
}

// update appends the pivot (entering column w = B⁻¹a_q replacing basis
// row r) to the eta file. Returns false when the pivot is numerically
// unusable or the eta file is full — the caller must refactorize.
func (f *luFactor) update(w []float64, r int) bool {
	if len(f.etas) >= refactorEvery {
		return false
	}
	if math.Abs(w[r]) < 1e-9 {
		return false
	}
	start := len(f.etaIdx)
	for i, v := range w {
		if i != r && v != 0 {
			f.etaIdx = append(f.etaIdx, int32(i))
			f.etaVal = append(f.etaVal, v)
		}
	}
	// Slices into the arena stay valid across later appends: growth
	// reallocates the arena but earlier etas keep the old backing array.
	f.etas = append(f.etas, etaVec{r: r, diag: w[r], idx: f.etaIdx[start:len(f.etaIdx):len(f.etaIdx)], val: f.etaVal[start:len(f.etaVal):len(f.etaVal)]})
	return true
}
