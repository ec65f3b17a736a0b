package ilp

import (
	"math"
	"slices"
	"time"
)

// Nonbasic/basic variable status in the revised simplex.
const (
	nbLower int8 = iota // nonbasic at lower bound
	nbUpper             // nonbasic at upper bound
	inBase              // basic
)

// lpFailed is an internal status: the warm start could not be used
// (singular basis, dual infeasibility beyond tolerance) and the caller
// must fall back to a cold solve. It never escapes the package.
const lpFailed LPStatus = -1

// lpCutoff is an internal status: the dual objective — a monotonically
// rising lower bound on the relaxation optimum — crossed the caller's
// cutoff (the incumbent), so the node is pruned without solving the LP
// to optimality. It never escapes the package.
const lpCutoff LPStatus = -2

// lpSolver is one revised-simplex workspace bound to a compiled problem.
// It is reused across branch-and-bound nodes (only bounds change) and is
// not safe for concurrent use.
type lpSolver struct {
	p *prob

	lo, hi []float64 // working bounds (structural part varies per node)
	cost   []float64 // current objective (len n; slacks 0)

	basis []int // row -> column
	stat  []int8
	xB    []float64 // value of the basic variable per row
	d     []float64 // reduced costs per column

	f luFactor

	// scratch
	w, rho, alpha []float64
	// touched lists the alpha entries written by the last priceRow (the
	// only valid ones); inTouched is its membership mask. touchedBuf is
	// the sparse path's backing; allCols (0..n-1, read-only) stands in
	// for touched when the dense path priced every column.
	touched    []int32
	touchedBuf []int32
	allCols    []int32
	inTouched  []bool

	iters    int
	bland    bool
	fValid   bool // f factorizes the current s.basis
	deadline time.Time
	// iterCap, when positive, bounds one simplex run below maxIters —
	// branch-and-bound node solves are disposable (an IterLimit node is
	// pruned), so they get a modest deterministic budget instead of
	// grinding through degenerate or infeasible relaxations.
	iterCap int
	// cutoff, when finite, aborts the dual simplex with lpCutoff as soon
	// as the objective (a lower bound while dual feasible) exceeds it.
	cutoff float64
}

func newLPSolver(p *prob) *lpSolver {
	s := &lpSolver{p: p}
	s.lo = make([]float64, p.n)
	s.hi = make([]float64, p.n)
	s.cost = make([]float64, p.n)
	s.basis = make([]int, p.m)
	s.stat = make([]int8, p.n)
	s.xB = make([]float64, p.m)
	s.d = make([]float64, p.n)
	s.w = make([]float64, p.m)
	s.rho = make([]float64, p.m)
	s.alpha = make([]float64, p.n)
	s.touchedBuf = make([]int32, 0, p.n)
	s.touched = s.touchedBuf
	s.allCols = make([]int32, p.n)
	for j := range s.allCols {
		s.allCols[j] = int32(j)
	}
	s.inTouched = make([]bool, p.n)
	s.cutoff = math.Inf(1)
	return s
}

// priceRow computes the pivot row alpha = eᵣB⁻ᵀ·[A|I] of the current
// basis. The unit right-hand side often makes rho sparse; then alpha is
// scattered from rho's nonzero rows through the CSR mirror (plus the
// unit slack column of each such row) instead of dotting every column.
// When rho comes back dense — tightly coupled bases like the assignment
// rows — the scatter (and the sort it needs) costs more than it saves,
// so the full column sweep is used instead. Either way only the entries
// listed in s.touched are valid afterwards, ascending so callers scan
// columns in the same order as a full 0..n sweep; untouched columns are
// exactly zero, and both paths accumulate each alpha[j] in ascending
// row order, so the choice never changes the computed values.
func (s *lpSolver) priceRow(r int) {
	p := s.p
	for _, j := range s.touched {
		s.alpha[j] = 0
		s.inTouched[j] = false
	}
	for i := range s.rho {
		s.rho[i] = 0
	}
	s.rho[r] = 1
	s.f.btran(s.rho)
	nnz := 0
	for i := 0; i < p.m; i++ {
		if s.rho[i] != 0 {
			nnz++
		}
	}
	if nnz*4 > p.m {
		// Dense path: dot every column (values identical to the scatter).
		for j := 0; j < p.n; j++ {
			s.alpha[j] = p.colDot(s.rho, j)
		}
		s.touched = s.allCols
		return
	}
	s.touched = s.touchedBuf[:0]
	for i := 0; i < p.m; i++ {
		t := s.rho[i]
		if t == 0 {
			continue
		}
		for at := p.rowPtr[i]; at < p.rowPtr[i+1]; at++ {
			j := p.rowCol[at]
			if !s.inTouched[j] {
				s.inTouched[j] = true
				s.touched = append(s.touched, j)
			}
			s.alpha[j] += t * p.rowVal[at]
		}
		sj := int32(p.nStruct + i)
		s.inTouched[sj] = true
		s.touched = append(s.touched, sj)
		s.alpha[sj] = t
	}
	slices.Sort(s.touched)
	s.touchedBuf = s.touched
}

// objVal computes the true objective (original costs) of the current
// basic solution.
func (s *lpSolver) objVal() float64 {
	p := s.p
	z := 0.0
	for j := 0; j < p.nStruct; j++ {
		if c := p.obj[j]; c != 0 && s.stat[j] != inBase {
			z += c * s.nbVal(j)
		}
	}
	for i, j := range s.basis {
		if j < p.nStruct {
			if c := p.obj[j]; c != 0 {
				z += c * s.xB[i]
			}
		}
	}
	return z
}

// setBounds installs per-node structural bounds (nil = problem defaults);
// slack bounds always come from the problem.
func (s *lpSolver) setBounds(lo, hi []float64) {
	if lo == nil {
		lo = s.p.lo[:s.p.nStruct]
	}
	if hi == nil {
		hi = s.p.hi[:s.p.nStruct]
	}
	copy(s.lo[:s.p.nStruct], lo)
	copy(s.hi[:s.p.nStruct], hi)
	copy(s.lo[s.p.nStruct:], s.p.lo[s.p.nStruct:])
	copy(s.hi[s.p.nStruct:], s.p.hi[s.p.nStruct:])
}

// nbVal returns the value of nonbasic column j.
func (s *lpSolver) nbVal(j int) float64 {
	if s.stat[j] == nbUpper {
		return s.hi[j]
	}
	return s.lo[j]
}

// computeXB recomputes the basic values from the bounds and basis:
// xB = B⁻¹(b − A_N x_N).
func (s *lpSolver) computeXB() {
	p := s.p
	copy(s.xB, p.b)
	for j := 0; j < p.n; j++ {
		if s.stat[j] == inBase {
			continue
		}
		v := s.nbVal(j)
		if v == 0 {
			continue
		}
		if r, ok := p.slackCol(j); ok {
			s.xB[r] -= v
			continue
		}
		for at := p.colPtr[j]; at < p.colPtr[j+1]; at++ {
			s.xB[p.rowIdx[at]] -= p.colVal[at] * v
		}
	}
	s.f.ftran(s.xB)
}

// computeDuals refreshes every reduced cost from the current basis:
// y = B⁻ᵀ c_B, d_j = c_j − y·A_j.
func (s *lpSolver) computeDuals() {
	p := s.p
	allZero := true
	for i := 0; i < p.m; i++ {
		c := s.cost[s.basis[i]]
		s.rho[i] = c
		if c != 0 {
			allZero = false
		}
	}
	if !allZero {
		s.f.btran(s.rho)
	}
	for j := 0; j < p.n; j++ {
		if s.stat[j] == inBase {
			s.d[j] = 0
			continue
		}
		if allZero {
			s.d[j] = s.cost[j]
			continue
		}
		s.d[j] = s.cost[j] - p.colDot(s.rho, j)
	}
}

// refresh refactorizes the basis and recomputes xB and d from scratch.
func (s *lpSolver) refresh() bool {
	if err := s.f.factorize(s.p, s.basis); err != nil {
		s.fValid = false
		return false
	}
	s.fValid = true
	s.computeXB()
	s.computeDuals()
	return true
}

// maxIters bounds one simplex run.
func (s *lpSolver) maxIters() int { return 60*(s.p.m+s.p.n) + 2000 }

// pertScale sizes the anti-degeneracy cost perturbation.
const pertScale = 1e-7

// perturb adds a deterministic, status-aware perturbation to the cost of
// every nonbasic column: +ε for columns at their lower bound, −ε at the
// upper. Both directions push the reduced cost strictly into dual
// feasibility, so every later dual ratio test sees a nonzero |d| and each
// pivot makes strict dual progress — the cure for the stalling that
// plagues these models, whose true objective touches a single variable
// (the makespan) and leaves every other reduced cost at zero. The true
// costs are restored (and the tiny resulting error cleaned up by a primal
// pass) before a solve returns.
func (s *lpSolver) perturb() {
	for j := 0; j < s.p.n; j++ {
		if s.stat[j] == inBase || s.lo[j] == s.hi[j] {
			continue
		}
		u := 0.5 + float64(mix64(uint64(j)+0x9e37)>>11)/(1<<53) // [0.5, 1.5)
		eps := pertScale * (1 + math.Abs(s.cost[j])) * u
		if s.stat[j] == nbUpper {
			eps = -eps
		}
		s.cost[j] += eps
	}
}

// cleanup restores the true objective after a perturbed dual run and, if
// the perturbation left any reduced cost sign-infeasible, polishes with
// the primal simplex (usually zero or a handful of iterations).
func (s *lpSolver) cleanup() LPStatus {
	p := s.p
	for j := 0; j < p.nStruct; j++ {
		s.cost[j] = p.obj[j]
	}
	for j := p.nStruct; j < p.n; j++ {
		s.cost[j] = 0
	}
	s.computeDuals()
	for j := 0; j < p.n; j++ {
		if s.stat[j] == inBase || s.lo[j] == s.hi[j] {
			continue
		}
		bad := (s.stat[j] == nbLower && s.d[j] < -epsCost) ||
			(s.stat[j] == nbUpper && s.d[j] > epsCost)
		if bad {
			s.bland = false
			return s.primal()
		}
	}
	return LPOptimal
}

func (s *lpSolver) expired(local int) bool {
	return local%128 == 0 && !s.deadline.IsZero() && time.Now().After(s.deadline) //repolint:allow timenow (solver deadline check)
}

// solveCold solves the LP from the all-slack basis. Structural variables
// start at the bound their (possibly phase-1-clamped) cost prefers.
func (s *lpSolver) solveCold() LPStatus {
	p := s.p
	// Phase-1 costs: negative-cost columns with an infinite upper bound
	// cannot be made dual feasible at a bound, so their cost is clamped
	// to zero for the dual pass; cleanup() restores the true costs and
	// polishes with the primal simplex.
	for j := 0; j < p.nStruct; j++ {
		c := p.obj[j]
		if c < 0 && math.IsInf(s.hi[j], 1) {
			c = 0
		}
		s.cost[j] = c
	}
	for j := p.nStruct; j < p.n; j++ {
		s.cost[j] = 0
	}
	for j := 0; j < p.n; j++ {
		switch {
		case s.cost[j] < 0 && !math.IsInf(s.hi[j], 1):
			s.stat[j] = nbUpper
		default:
			s.stat[j] = nbLower
		}
	}
	for i := 0; i < p.m; i++ {
		s.basis[i] = p.nStruct + i
		s.stat[p.nStruct+i] = inBase
	}
	s.bland = false
	s.perturb()
	if !s.refresh() {
		return lpFailed // cannot happen: the slack basis is the identity
	}
	st := s.dual()
	if st != LPOptimal {
		return st
	}
	// Phase 2: restore the true (unclamped, unperturbed) costs and clean
	// up with primal simplex from the now primal-feasible basis.
	return s.cleanup()
}

// solveWarm re-solves after a bound change, starting from a previously
// optimal basis (dual feasible by construction). Returns lpFailed when
// the basis cannot be reused; the caller falls back to solveCold.
func (s *lpSolver) solveWarm(basis []int32, stat []int8) LPStatus {
	p := s.p
	for j := 0; j < p.nStruct; j++ {
		s.cost[j] = p.obj[j]
	}
	for j := p.nStruct; j < p.n; j++ {
		s.cost[j] = 0
	}
	// When the requested basis is the one the solver already holds — the
	// rule along depth-first dives, where a child is solved right after
	// its parent on the same solver — the factorization (LU + eta file)
	// is still valid: only bounds changed, and B depends on the basis
	// columns alone. Skipping the O(m³) refactorization makes those
	// child re-solves nearly free.
	same := s.fValid
	for i := range s.basis {
		if s.basis[i] != int(basis[i]) {
			same = false
			break
		}
	}
	copy(s.stat, stat)
	s.bland = false
	s.perturb()
	if same {
		s.computeXB()
		s.computeDuals()
	} else {
		for i := range s.basis {
			s.basis[i] = int(basis[i])
		}
		if !s.refresh() {
			return lpFailed
		}
	}
	// The parent's optimal duals must still be sign-feasible; numerical
	// drift beyond tolerance voids the warm start.
	for j := 0; j < p.n; j++ {
		switch s.stat[j] {
		case nbLower:
			if s.d[j] < -1e-6 && !(s.lo[j] == s.hi[j]) {
				return lpFailed
			}
		case nbUpper:
			if s.d[j] > 1e-6 && !(s.lo[j] == s.hi[j]) {
				return lpFailed
			}
		}
	}
	st := s.dual()
	if st != LPOptimal {
		return st
	}
	return s.cleanup()
}

// result extracts the solution in the model's variable space.
func (s *lpSolver) result(status LPStatus) LPResult {
	res := LPResult{Status: status, Iters: s.iters}
	if status != LPOptimal {
		return res
	}
	p := s.p
	x := make([]float64, p.nStruct)
	for j := 0; j < p.nStruct; j++ {
		x[j] = s.nbVal(j)
	}
	for i, j := range s.basis {
		if j < p.nStruct {
			x[j] = s.xB[i]
		}
	}
	obj := 0.0
	for j, v := range x {
		obj += p.obj[j] * v
	}
	res.X = x
	res.Obj = obj
	return res
}

// saveBasis snapshots the basis for warm-starting child nodes.
func (s *lpSolver) saveBasis() ([]int32, []int8) {
	b := make([]int32, s.p.m)
	for i, j := range s.basis {
		b[i] = int32(j)
	}
	st := make([]int8, s.p.n)
	copy(st, s.stat)
	return b, st
}

// boundTol is the feasibility tolerance for a bound of magnitude v.
func boundTol(v float64) float64 { return epsFeas * (1 + math.Abs(v)) }

// dual runs the bounded-variable dual simplex: it drives out primal bound
// violations while keeping the reduced costs sign-feasible. Terminates
// with LPOptimal (primal feasible), LPInfeasible, or LPIterLimit.
func (s *lpSolver) dual() LPStatus {
	p := s.p
	limit := s.maxIters()
	if s.iterCap > 0 && s.iterCap < limit {
		limit = s.iterCap
	}
	degen := 0
iter:
	for local := 1; ; local++ {
		s.iters++
		if local > limit {
			return LPIterLimit
		}
		if s.expired(local) {
			return LPIterLimit
		}
		// Objective cutoff: while dual feasible, the objective is a lower
		// bound on the relaxation optimum; once it crosses the incumbent
		// the node cannot improve and the solve is abandoned. The margin
		// absorbs the cost-perturbation error.
		if local%8 == 0 && !math.IsInf(s.cutoff, 1) {
			if s.objVal() > s.cutoff+1e-6*(1+math.Abs(s.cutoff)) {
				return lpCutoff
			}
		}
		if local%512 == 0 {
			// Hygiene refresh: the eta-cap refactorization already bounds
			// error growth, so this is a rare safety net only.
			if !s.refresh() {
				return lpFailed
			}
		}
		// Leaving row: the largest bound violation.
		r := -1
		viol := 0.0
		below := false
		for i := 0; i < p.m; i++ {
			bi := s.basis[i]
			if v := s.lo[bi] - s.xB[i]; v > boundTol(s.lo[bi]) && v > viol {
				r, viol, below = i, v, true
			}
			if v := s.xB[i] - s.hi[bi]; v > boundTol(s.hi[bi]) && v > viol {
				r, viol, below = i, v, false
			}
		}
		if r < 0 {
			return LPOptimal
		}
		lv := s.basis[r]
		// Pricing row: alpha_j = (B⁻¹A)_r,j.
		s.priceRow(r)
		// Entering column: dual ratio test. Eligibility keeps the step
		// direction that repairs the violation (and demands |alpha| above
		// the pivot-stability floor epsDualPivot); the minimum |d/alpha|
		// keeps dual feasibility. Ties prefer the largest |alpha| (pivot
		// stability); Bland mode takes the lowest eligible index. The loop
		// re-picks when the FTRAN'd column contradicts the priced entry.
		q := -1
		var aq float64
		zeroed := false
		for {
			// Two tiers: candidates above the epsDualPivot stability floor
			// are preferred outright; ones in (epsPivot, epsDualPivot] are
			// kept as a fallback so a row whose only repair pivots are weak
			// is still pivoted rather than declared infeasible. Preferring
			// a stable pivot over the weak minimum ratio can push a weak
			// column's reduced cost past zero, but only by ~|alpha|·step —
			// the cleanup primal polish restores optimality either way.
			q = -1
			qw := -1
			bestRatio, bestMag := math.Inf(1), 0.0
			weakRatio, weakMag := math.Inf(1), 0.0
			for _, j32 := range s.touched {
				j := int(j32)
				if s.stat[j] == inBase || s.lo[j] == s.hi[j] {
					continue
				}
				a := s.alpha[j]
				eligible := false
				if below {
					eligible = (s.stat[j] == nbLower && a < -epsPivot) ||
						(s.stat[j] == nbUpper && a > epsPivot)
				} else {
					eligible = (s.stat[j] == nbLower && a > epsPivot) ||
						(s.stat[j] == nbUpper && a < -epsPivot)
				}
				if !eligible {
					continue
				}
				ratio := math.Abs(s.d[j] / a)
				mag := math.Abs(a)
				if mag > epsDualPivot {
					switch {
					case s.bland:
						if q < 0 {
							q = j
						}
					case ratio < bestRatio-1e-9 || (ratio <= bestRatio+1e-9 && mag > bestMag):
						q, bestRatio, bestMag = j, ratio, mag
					}
				} else {
					switch {
					case s.bland:
						if qw < 0 {
							qw = j
						}
					case ratio < weakRatio-1e-9 || (ratio <= weakRatio+1e-9 && mag > weakMag):
						qw, weakRatio, weakMag = j, ratio, mag
					}
				}
			}
			if q < 0 {
				q = qw
			}
			if q < 0 {
				if zeroed {
					// Only FTRAN-refuted candidates remained: a numerical
					// dead end, not an infeasibility certificate.
					return lpFailed
				}
				return LPInfeasible
			}
			// Entering column through the basis.
			p.gatherCol(q, s.w)
			s.f.ftran(s.w)
			aq = s.w[r]
			if math.Abs(aq) >= epsPivot {
				break
			}
			// The priced row said alpha[q] is a usable pivot; the FTRAN'd
			// column says it is numerically zero. With a non-trivial eta
			// file the priced row may be stale — refactorize and restart
			// the iteration. On a fresh factorization FTRAN is the more
			// accurate of the two, so drop the column from this pricing
			// round and take the next-best candidate; refactorizing would
			// reproduce the identical disagreement.
			if len(s.f.etas) > 0 {
				if !s.refresh() {
					return lpFailed
				}
				continue iter
			}
			s.alpha[q] = 0
			zeroed = true
		}
		bnd := s.hi[lv]
		if below {
			bnd = s.lo[lv]
		}
		t := (s.xB[r] - bnd) / aq
		if math.Abs(t) <= 1e-12 {
			degen++
			if degen > 4*(p.m+64) {
				s.bland = true
			}
		} else {
			degen = 0
		}
		enterVal := s.nbVal(q) + t
		for i := 0; i < p.m; i++ {
			if i != r {
				s.xB[i] -= t * s.w[i]
			}
		}
		s.xB[r] = enterVal
		// Dual update from the priced row.
		theta := s.d[q] / s.alpha[q]
		for _, j32 := range s.touched {
			j := int(j32)
			if s.stat[j] != inBase && s.lo[j] != s.hi[j] && s.alpha[j] != 0 {
				s.d[j] -= theta * s.alpha[j]
			}
		}
		s.d[q] = 0
		s.d[lv] = -theta
		if below {
			s.stat[lv] = nbLower
		} else {
			s.stat[lv] = nbUpper
		}
		s.basis[r] = q
		s.stat[q] = inBase
		if !s.f.update(s.w, r) {
			if err := s.f.factorize(p, s.basis); err != nil {
				s.fValid = false
				return lpFailed
			}
			s.computeXB()
			s.computeDuals()
		}
	}
}

// primal runs the bounded-variable primal simplex from a primal-feasible
// basis. Terminates with LPOptimal, LPUnbounded, or LPIterLimit.
func (s *lpSolver) primal() LPStatus {
	p := s.p
	limit := s.maxIters()
	if s.iterCap > 0 && s.iterCap < limit {
		limit = s.iterCap
	}
	blandAfter := 8*(p.m+p.n) + 300
	for local := 1; ; local++ {
		s.iters++
		if local > limit {
			return LPIterLimit
		}
		if s.expired(local) {
			return LPIterLimit
		}
		if local > blandAfter {
			s.bland = true
		}
		if local%512 == 0 {
			// Hygiene refresh: the eta-cap refactorization already bounds
			// error growth, so this is a rare safety net only.
			if !s.refresh() {
				return lpFailed
			}
		}
		// Entering variable (Dantzig; Bland after stalling).
		e := -1
		var dir float64
		best := -epsCost
		for j := 0; j < p.n; j++ {
			if s.stat[j] == inBase || s.lo[j] == s.hi[j] {
				continue
			}
			switch s.stat[j] {
			case nbLower:
				if s.d[j] < best {
					e, dir, best = j, 1, s.d[j]
					if s.bland {
						goto chosen
					}
				}
			case nbUpper:
				if -s.d[j] < best {
					e, dir, best = j, -1, -s.d[j]
					if s.bland {
						goto chosen
					}
				}
			}
		}
	chosen:
		if e < 0 {
			return LPOptimal
		}
		p.gatherCol(e, s.w)
		s.f.ftran(s.w)
		// Two-pass (Harris-style) ratio test, as in the former dense
		// solver: pass 1 finds the tightest step, pass 2 the most stable
		// pivot among rows tying within tolerance.
		const ratioTol = 1e-7
		rowLimit := func(i int) (lim float64, toUpper bool, mag float64, ok bool) {
			a := dir * s.w[i]
			mag = math.Abs(a)
			if mag <= epsPivot {
				return 0, false, 0, false
			}
			bi := s.basis[i]
			if a > 0 {
				lim = (s.xB[i] - s.lo[bi]) / a
			} else {
				if math.IsInf(s.hi[bi], 1) {
					return 0, false, 0, false
				}
				lim = (s.hi[bi] - s.xB[i]) / (-a)
				toUpper = true
			}
			if lim < 0 {
				lim = 0
			}
			return lim, toUpper, mag, true
		}
		flip := s.hi[e] - s.lo[e] // bound-to-bound flip distance
		tMax := flip
		for i := 0; i < p.m; i++ {
			if lim, _, _, ok := rowLimit(i); ok && lim < tMax {
				tMax = lim
			}
		}
		if math.IsInf(tMax, 1) {
			return LPUnbounded
		}
		leave := -1
		leaveUpper := false
		bestMag := 0.0
		for i := 0; i < p.m; i++ {
			lim, toUpper, mag, ok := rowLimit(i)
			if !ok || lim > tMax+ratioTol*(1+tMax) {
				continue
			}
			switch {
			case s.bland:
				if leave < 0 || s.basis[i] < s.basis[leave] {
					leave, leaveUpper, bestMag = i, toUpper, mag
				}
			case mag > bestMag:
				leave, leaveUpper, bestMag = i, toUpper, mag
			}
		}
		if leave < 0 && tMax < flip {
			tMax = flip
		}
		if leave < 0 {
			// Bound flip: e moves to its opposite bound.
			for i := 0; i < p.m; i++ {
				s.xB[i] -= dir * tMax * s.w[i]
			}
			if s.stat[e] == nbLower {
				s.stat[e] = nbUpper
			} else {
				s.stat[e] = nbLower
			}
			continue
		}
		for i := 0; i < p.m; i++ {
			if i != leave {
				s.xB[i] -= dir * tMax * s.w[i]
			}
		}
		enterVal := s.nbVal(e) + dir*tMax
		lv := s.basis[leave]
		if leaveUpper {
			s.stat[lv] = nbUpper
		} else {
			s.stat[lv] = nbLower
		}
		s.basis[leave] = e
		s.stat[e] = inBase
		s.xB[leave] = enterVal
		// Dual update from the pivot row of the outgoing basis.
		// The priced row is taken before the factorization update, so it
		// is the row of the OLD basis; alpha_e = w[leave].
		s.priceRow(leave)
		theta := s.d[e] / s.w[leave]
		for _, j32 := range s.touched {
			j := int(j32)
			if s.stat[j] == inBase {
				continue
			}
			if a := s.alpha[j]; a != 0 {
				s.d[j] -= theta * a
			}
		}
		s.d[e] = 0
		s.d[lv] = -theta
		if !s.f.update(s.w, leave) {
			if err := s.f.factorize(p, s.basis); err != nil {
				s.fValid = false
				return lpFailed
			}
			s.computeXB()
			s.computeDuals()
		}
	}
}
