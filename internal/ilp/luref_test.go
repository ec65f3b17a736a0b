package ilp

// The dense basis LU this package shipped before the sparse-pattern
// factor, kept verbatim (modulo the type name) as a test-only reference.
// The sparse factor performs the same floating-point operations on every
// nonzero, so TestLUParity requires identical pivots and FTRAN/BTRAN
// results equal entry by entry — the guard that the rewrite changed the
// cost of factorizing, not the factor.

import "math"

// denseLU maintains an invertible representation of the simplex basis
// matrix B: a dense LU factorization with partial pivoting, plus a
// product-form eta file for the pivots applied since the last
// refactorization. FTRAN solves Bx = v, BTRAN solves Bᵀy = v.
//
// The basis dimension is the row count m, which for the parallelizer's
// region models is a few hundred at most, so a dense O(m³/3) refactor
// every refactorEvery pivots and O(m²) triangular solves are cheap — the
// former dense tableau was O(m·n) per pivot over the full column space.
type denseLU struct {
	m    int
	lu   []float64 // m×m row-major, L (unit diag) and U in place
	lut  []float64 // transpose of lu: row k holds column k of L and U
	piv  []int     // row swaps applied during factorization
	etas []etaVec
	// etaIdx/etaVal back every eta's idx/val slices; truncated (not
	// freed) at refactorization so steady-state updates allocate nothing.
	etaIdx []int32
	etaVal []float64
}

// factorize computes the LU decomposition of the basis given by cols
// (one column index per row) gathered from p. Existing etas are dropped.
func (f *denseLU) factorize(p *prob, basis []int) error {
	m := p.m
	f.m = m
	if cap(f.lu) < m*m {
		f.lu = make([]float64, m*m)
	}
	f.lu = f.lu[:m*m]
	for i := range f.lu {
		f.lu[i] = 0
	}
	if cap(f.piv) < m {
		f.piv = make([]int, m)
	}
	f.piv = f.piv[:m]
	f.etas = f.etas[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	// Gather basis columns: lu[i*m+k] = A[i][basis[k]].
	for k, j := range basis {
		if r, ok := p.slackCol(j); ok {
			f.lu[r*m+k] = 1
			continue
		}
		for at := p.colPtr[j]; at < p.colPtr[j+1]; at++ {
			f.lu[int(p.rowIdx[at])*m+k] = p.colVal[at]
		}
	}
	// Doolittle with partial pivoting.
	for k := 0; k < m; k++ {
		pr, pv := k, math.Abs(f.lu[k*m+k])
		for i := k + 1; i < m; i++ {
			if a := math.Abs(f.lu[i*m+k]); a > pv {
				pr, pv = i, a
			}
		}
		if pv < 1e-11 {
			return errSingular
		}
		f.piv[k] = pr
		if pr != k {
			rk, rp := f.lu[k*m:k*m+m], f.lu[pr*m:pr*m+m]
			for j := 0; j < m; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1 / f.lu[k*m+k]
		for i := k + 1; i < m; i++ {
			l := f.lu[i*m+k] * inv
			if l == 0 {
				continue
			}
			f.lu[i*m+k] = l
			ri, rk := f.lu[i*m:i*m+m], f.lu[k*m:k*m+m]
			for j := k + 1; j < m; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	// Transposed copy: the triangular solves below walk columns of L/U
	// in scatter form, which become contiguous rows of lut.
	if cap(f.lut) < m*m {
		f.lut = make([]float64, m*m)
	}
	f.lut = f.lut[:m*m]
	const tb = 32 // cache-blocked transpose
	for ib := 0; ib < m; ib += tb {
		ie := ib + tb
		if ie > m {
			ie = m
		}
		for jb := 0; jb < m; jb += tb {
			je := jb + tb
			if je > m {
				je = m
			}
			for i := ib; i < ie; i++ {
				for j := jb; j < je; j++ {
					f.lut[j*m+i] = f.lu[i*m+j]
				}
			}
		}
	}
	return nil
}

// luSolve solves (LU)x = Pv in place. Both triangular phases run in
// scatter (outer-product) form over rows of the transposed factor:
// column k of L/U is contiguous in lut, and a zero intermediate skips
// its whole column update. Simplex right-hand sides are sparse (the
// entering column for FTRAN), so most columns are skipped outright.
func (f *denseLU) luSolve(x []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// L y = Pv: y[k] known once reached; scatter down column k.
	for k := 0; k < m-1; k++ {
		t := x[k]
		if t == 0 {
			continue
		}
		ck := f.lut[k*m : k*m+m]
		for i := k + 1; i < m; i++ {
			x[i] -= ck[i] * t
		}
	}
	// U x = y: backward scatter up column k.
	for k := m - 1; k >= 0; k-- {
		t := x[k]
		if t == 0 {
			continue
		}
		ck := f.lut[k*m : k*m+k]
		t /= f.lut[k*m+k]
		x[k] = t
		for i := 0; i < k; i++ {
			x[i] -= ck[i] * t
		}
	}
}

// luSolveT solves (LU)ᵀw = v and applies Pᵀ in place. Scatter form over
// rows of lu: row k of U (resp. L) is column k of Uᵀ (resp. Lᵀ), so both
// phases get contiguous access plus the zero-skip — BTRAN right-hand
// sides are unit vectors, making the skip the common case.
func (f *denseLU) luSolveT(x []float64) {
	m := f.m
	// Uᵀ z = v: forward scatter along row k of U.
	for k := 0; k < m; k++ {
		t := x[k]
		if t == 0 {
			continue
		}
		rk := f.lu[k*m : k*m+m]
		t /= rk[k]
		x[k] = t
		for i := k + 1; i < m; i++ {
			x[i] -= rk[i] * t
		}
	}
	// Lᵀ w = z: backward scatter along row k of L (unit diagonal).
	for k := m - 1; k > 0; k-- {
		t := x[k]
		if t == 0 {
			continue
		}
		rk := f.lu[k*m : k*m+k]
		for i := 0; i < k; i++ {
			x[i] -= rk[i] * t
		}
	}
	for k := m - 1; k >= 0; k-- {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
}

// ftran solves B x = v in place (LU solve, then the eta file in order).
func (f *denseLU) ftran(x []float64) {
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
func (f *denseLU) btran(x []float64) {
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
func (f *denseLU) update(w []float64, r int) bool {
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
