package ilp

import (
	"fmt"
	"math"
	"testing"
)

// luParity counts what the parity cases exercised, so the test can
// require that row swaps, eta updates and singular bases occurred.
type luParity struct {
	bases, singular, swaps, updates int
}

// check factorizes basis with the sparse factor and the dense reference
// and requires identical pivots and identical FTRAN/BTRAN results on the
// bare factor, after a few eta updates and after refactorizing the same
// basis. Results compare with ==, so a zero may differ in sign.
func (c *luParity) check(t *testing.T, name string, p *prob, basis []int, rng *eqvRng) {
	t.Helper()
	var sp luFactor
	var dn denseLU
	es, ed := sp.factorize(p, basis), dn.factorize(p, basis)
	if (es == nil) != (ed == nil) {
		t.Fatalf("%s: sparse factorize err %v, dense %v", name, es, ed)
	}
	c.bases++
	if es != nil {
		c.singular++
		return
	}
	for k := range dn.piv {
		if int(sp.piv[k]) != dn.piv[k] {
			t.Fatalf("%s: piv[%d] = %d, dense %d", name, k, sp.piv[k], dn.piv[k])
		}
		if dn.piv[k] != k {
			c.swaps++
		}
	}
	c.solves(t, name, p.m, &sp, &dn, rng)
	// Pivot a few nonbasic columns in and solve through the eta file.
	m := p.m
	w := make([]float64, m)
	inBasis := make([]bool, p.n)
	for _, j := range basis {
		inBasis[j] = true
	}
	for u := 0; u < 3; u++ {
		q := rng.intn(p.n)
		if inBasis[q] {
			continue
		}
		p.gatherCol(q, w)
		sp.ftran(w)
		r := 0
		for i := range w {
			if math.Abs(w[i]) > math.Abs(w[r]) {
				r = i
			}
		}
		if !sp.update(w, r) {
			continue
		}
		if !dn.update(w, r) {
			t.Fatalf("%s: dense factor refused an update the sparse one took", name)
		}
		inBasis[basis[r]], inBasis[q] = false, true
		c.updates++
		c.solves(t, fmt.Sprintf("%s/eta%d", name, u), m, &sp, &dn, rng)
	}
	// Refactorizing the basis the LU already holds only drops the etas.
	if err := sp.factorize(p, basis); err != nil {
		t.Fatalf("%s: refactorize: %v", name, err)
	}
	if len(sp.etas) != 0 {
		t.Fatalf("%s: refactorize kept %d etas", name, len(sp.etas))
	}
	var fresh denseLU
	if err := fresh.factorize(p, basis); err != nil {
		t.Fatalf("%s: dense refactorize: %v", name, err)
	}
	c.solves(t, name+"/again", m, &sp, &fresh, rng)
}

// solves compares FTRAN and BTRAN on every unit vector and on sparse
// random right-hand sides.
func (c *luParity) solves(t *testing.T, name string, m int, sp *luFactor, dn *denseLU, rng *eqvRng) {
	t.Helper()
	a, b := make([]float64, m), make([]float64, m)
	var rhs [][]float64
	for i := 0; i < m; i++ {
		v := make([]float64, m)
		v[i] = 1
		rhs = append(rhs, v)
	}
	for n := 0; n < 4; n++ {
		v := make([]float64, m)
		for i := 0; i < 1+m/8; i++ {
			v[rng.intn(m)] = math.Round((rng.f64()*8-4)*16) / 16
		}
		rhs = append(rhs, v)
	}
	for ri, v := range rhs {
		for _, tr := range []bool{false, true} {
			copy(a, v)
			copy(b, v)
			if tr {
				sp.btran(a)
				dn.btran(b)
			} else {
				sp.ftran(a)
				dn.ftran(b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: rhs %d transposed=%v: x[%d] = %v, dense %v", name, ri, tr, i, a[i], b[i])
				}
			}
		}
	}
}

// randomBasisProb builds an m-row problem whose structural columns are
// sparse, with many ±1 entries (pivot-magnitude ties), and a basis that
// mixes unit slack columns and structural columns. When singular is set,
// columns 0 and 1 are equal and both basic.
func randomBasisProb(rng *eqvRng, m int, singular bool) (*prob, []int) {
	ns := m + rng.intn(m+1)
	type entry struct {
		i int32
		v float64
	}
	// Column j always has an entry in its home row j mod m, so a basis
	// that gives row i a column homed there covers every row.
	cols := make([][]entry, ns)
	for j := range cols {
		seen := map[int]bool{}
		for want := 1 + rng.intn(4); len(seen) < want && len(seen) < m; {
			i := j % m
			if len(seen) > 0 {
				i = rng.intn(m)
			}
			if seen[i] {
				continue
			}
			seen[i] = true
			v := 1.0
			switch rng.intn(4) {
			case 0:
				v = -1
			case 1:
				v = math.Round((rng.f64()*6-3)*64) / 64
				if v == 0 {
					v = 0.5
				}
			case 2:
				v = rng.f64()*2 - 1 + 1e-3
			}
			cols[j] = append(cols[j], entry{int32(i), v})
		}
	}
	if singular && ns >= 2 {
		cols[1] = cols[0] // both go into the basis below
	}
	p := &prob{m: m, nStruct: ns, n: ns + m, colPtr: make([]int32, ns+1)}
	for j, col := range cols {
		for _, e := range col {
			p.rowIdx = append(p.rowIdx, e.i)
			p.colVal = append(p.colVal, e.v)
		}
		p.colPtr[j+1] = int32(len(p.rowIdx))
	}
	// Basis: each row keeps its slack with probability 0.7, the rest
	// take a structural column homed in that row.
	basis := make([]int, m)
	for i := range basis {
		basis[i] = ns + i
		if j := i + m*rng.intn(2); j < ns && rng.f64() < 0.3 {
			basis[i] = j
		}
	}
	if singular && m >= 2 {
		basis[0], basis[1] = 0, 1
	}
	return p, basis
}

// TestLUParity requires the sparse basis factor to reproduce the dense
// reference exactly — same pivots, same FTRAN/BTRAN results entry by
// entry — on seeded random bases and on bases the solver reaches.
func TestLUParity(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		var c luParity
		rng := &eqvRng{s: 0x5eed}
		for n := 0; n < 400; n++ {
			m := 1 + rng.intn(40)
			p, basis := randomBasisProb(rng, m, n%5 == 4)
			c.check(t, fmt.Sprintf("case%d(m=%d)", n, m), p, basis, rng)
		}
		t.Logf("%+v", c)
		if c.singular == 0 || c.swaps == 0 || c.updates == 0 || c.bases-c.singular < 250 {
			t.Errorf("weak coverage: %+v", c)
		}
	})
	models := []struct {
		name string
		mod  *Model
	}{
		{"chunk", BenchChunkModel()},
		{"knapsack", BenchKnapsackModel(60, 7)},
		{"assignment", BenchAssignmentModel(14, 4, 3)},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			var c luParity
			rng, dir := &eqvRng{s: 0xba5e}, &eqvRng{s: 0xd1}
			p := compile(tc.mod)
			s := newLPSolver(p)
			s.setBounds(nil, nil)
			st := s.solveCold()
			if st != LPOptimal {
				t.Fatalf("root status %v", st)
			}
			c.check(t, "root", p, s.basis, rng)
			// A node-capped dive: branch on the first fractional integer
			// variable in a seeded direction, re-solving warm, and take
			// the other branch when one is not optimal.
			lo := append([]float64(nil), p.lo[:p.nStruct]...)
			hi := append([]float64(nil), p.hi[:p.nStruct]...)
			for node := 0; node < 40; node++ {
				x := s.result(LPOptimal).X
				j := -1
				for k, v := range x {
					if p.integral[k] && math.Abs(v-math.Round(v)) > 1e-6 {
						j = k
						break
					}
				}
				if j < 0 {
					break
				}
				b, stat := s.saveBasis()
				oldLo, oldHi := lo[j], hi[j]
				down := dir.intn(2) == 0
				ok := false
				for try := 0; try < 2 && !ok; try++ {
					lo[j], hi[j] = oldLo, oldHi
					if down {
						hi[j] = math.Floor(x[j])
					} else {
						lo[j] = math.Ceil(x[j])
					}
					down = !down
					s.setBounds(lo, hi)
					ok = s.solveWarm(b, stat) == LPOptimal
				}
				if !ok {
					break
				}
				c.check(t, fmt.Sprintf("node%d", node), p, s.basis, rng)
			}
			t.Logf("%+v", c)
			if c.bases < 10 {
				t.Errorf("dive reached only %d bases", c.bases)
			}
		})
	}
}

// TestBindForgetsFactor: the LU part is matched to a basis by problem
// pointer, so a solver rebound to a problem at the address of an earlier
// one (a recycled allocation) must refactorize, not reuse the old factor.
// The problem is rewritten in place to stand for that new allocation.
func TestBindForgetsFactor(t *testing.T) {
	rng := &eqvRng{s: 0xb1d}
	var p *prob
	var basis []int
	for {
		p, basis = randomBasisProb(rng, 12, false)
		structural := false
		for _, j := range basis {
			structural = structural || j < p.nStruct
		}
		var f luFactor
		if structural && f.factorize(p, basis) == nil {
			break
		}
	}
	var s lpSolver
	s.bind(p)
	if err := s.f.factorize(p, basis); err != nil {
		t.Fatal(err)
	}
	for i := range p.colVal {
		p.colVal[i] *= 2
	}
	s.bind(p)
	if err := s.f.factorize(p, basis); err != nil {
		t.Fatal(err)
	}
	var fresh luFactor
	if err := fresh.factorize(p, basis); err != nil {
		t.Fatal(err)
	}
	got, want := make([]float64, p.m), make([]float64, p.m)
	for i := range got {
		got[i], want[i] = float64(i+1), float64(i+1)
	}
	s.f.ftran(got)
	fresh.ftran(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rebound solver kept the old factor: x[%d] = %g, fresh factor %g", i, got[i], want[i])
		}
	}
}
