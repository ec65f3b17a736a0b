// Package ilp is a self-contained 0/1 mixed-integer linear programming
// solver: a bounded-variable two-phase primal simplex for the LP
// relaxations and a best-first branch-and-bound search for integrality.
//
// It replaces the lp_solve / CPLEX back ends of the paper's tool flow. The
// parallelizer builds one Model per (hierarchical node, main processor
// class, task bound) combination, mirroring the equations of Section IV,
// and reads back the optimal node-to-task and task-to-class assignment.
//
// The solver guarantees optimality when it terminates within its node
// budget (Status == StatusOptimal); with a budget or deadline it degrades
// to the best incumbent found (StatusFeasible).
package ilp

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// VarKind distinguishes continuous from integral variables.
type VarKind int

// Variable kinds.
const (
	Continuous VarKind = iota
	Integer            // general integer within bounds
	Binary             // {0,1}
)

// Var is one decision variable.
type Var struct {
	Name string
	Kind VarKind
	Lo   float64
	Hi   float64 // math.Inf(1) for unbounded
	Obj  float64 // objective coefficient (minimization)
	// Priority steers branch-and-bound: among fractional integral
	// variables, the highest priority class is branched first (default 0).
	Priority int
}

// SetPriority sets the branching priority of v and returns the model for
// chaining.
func (m *Model) SetPriority(v VarID, prio int) { m.Vars[v].Priority = prio }

// VarID indexes a variable within its model.
type VarID int

// Sense is the relational operator of a constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // ==
)

// String renders the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Term is one linear term Coeff * Var.
type Term struct {
	Var   VarID
	Coeff float64
}

// Constraint is a linear constraint sum(terms) Sense RHS.
type Constraint struct {
	Name  string
	Terms []Term
	Sense Sense
	RHS   float64
}

// Model is an ILP under construction. The objective is always minimized.
type Model struct {
	Vars []Var
	Cons []Constraint
}

// NewModel creates an empty model.
func NewModel() *Model { return &Model{} }

// AddVar adds a continuous variable with bounds [lo, hi].
func (m *Model) AddVar(name string, lo, hi, obj float64) VarID {
	m.Vars = append(m.Vars, Var{Name: name, Kind: Continuous, Lo: lo, Hi: hi, Obj: obj})
	return VarID(len(m.Vars) - 1)
}

// AddBinary adds a 0/1 variable.
func (m *Model) AddBinary(name string, obj float64) VarID {
	m.Vars = append(m.Vars, Var{Name: name, Kind: Binary, Lo: 0, Hi: 1, Obj: obj})
	return VarID(len(m.Vars) - 1)
}

// AddInt adds a bounded general-integer variable.
func (m *Model) AddInt(name string, lo, hi, obj float64) VarID {
	m.Vars = append(m.Vars, Var{Name: name, Kind: Integer, Lo: lo, Hi: hi, Obj: obj})
	return VarID(len(m.Vars) - 1)
}

// AddCons adds a constraint. Terms with duplicate variables are merged.
func (m *Model) AddCons(name string, terms []Term, sense Sense, rhs float64) {
	merged := mergeTerms(terms)
	m.Cons = append(m.Cons, Constraint{Name: name, Terms: merged, Sense: sense, RHS: rhs})
}

func mergeTerms(terms []Term) []Term {
	byVar := map[VarID]float64{}
	order := make([]VarID, 0, len(terms))
	for _, t := range terms {
		if _, seen := byVar[t.Var]; !seen {
			order = append(order, t.Var)
		}
		byVar[t.Var] += t.Coeff
	}
	out := make([]Term, 0, len(order))
	for _, v := range order {
		if byVar[v] != 0 {
			out = append(out, Term{Var: v, Coeff: byVar[v]})
		}
	}
	return out
}

// NumVars returns the variable count.
func (m *Model) NumVars() int { return len(m.Vars) }

// NumCons returns the constraint count.
func (m *Model) NumCons() int { return len(m.Cons) }

// Validate reports structural errors.
func (m *Model) Validate() error {
	for i, v := range m.Vars {
		if v.Lo > v.Hi {
			return fmt.Errorf("variable %d (%s): lower bound %g above upper %g", i, v.Name, v.Lo, v.Hi)
		}
		if math.IsInf(v.Lo, -1) {
			return fmt.Errorf("variable %d (%s): free variables are not supported (shift or split)", i, v.Name)
		}
	}
	for i, c := range m.Cons {
		for _, t := range c.Terms {
			if int(t.Var) < 0 || int(t.Var) >= len(m.Vars) {
				return fmt.Errorf("constraint %d (%s): unknown variable id %d", i, c.Name, t.Var)
			}
			if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
				return fmt.Errorf("constraint %d (%s): bad coefficient %g", i, c.Name, t.Coeff)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("constraint %d (%s): bad rhs %g", i, c.Name, c.RHS)
		}
	}
	return nil
}

// EvalCons computes the left-hand-side value of constraint c at point x.
func (m *Model) EvalCons(c *Constraint, x []float64) float64 {
	lhs := 0.0
	for _, t := range c.Terms {
		lhs += t.Coeff * x[t.Var]
	}
	return lhs
}

// Feasible checks x against all constraints and bounds within tol.
func (m *Model) Feasible(x []float64, tol float64) error {
	if len(x) != len(m.Vars) {
		return fmt.Errorf("point has %d entries, model has %d variables", len(x), len(m.Vars))
	}
	for i, v := range m.Vars {
		if x[i] < v.Lo-tol || x[i] > v.Hi+tol {
			return fmt.Errorf("variable %s = %g outside [%g, %g]", v.Name, x[i], v.Lo, v.Hi)
		}
		if v.Kind != Continuous && math.Abs(x[i]-math.Round(x[i])) > tol {
			return fmt.Errorf("variable %s = %g not integral", v.Name, x[i])
		}
	}
	for i := range m.Cons {
		c := &m.Cons[i]
		lhs := m.EvalCons(c, x)
		// Scale the tolerance with the row magnitude so nanosecond-scale
		// cost rows are not held to absolute unit tolerances.
		scale := 1.0
		for _, t := range c.Terms {
			if a := math.Abs(t.Coeff); a > scale {
				scale = a
			}
		}
		rtol := tol * scale
		switch c.Sense {
		case LE:
			if lhs > c.RHS+rtol {
				return fmt.Errorf("constraint %s violated: %g > %g", c.Name, lhs, c.RHS)
			}
		case GE:
			if lhs < c.RHS-rtol {
				return fmt.Errorf("constraint %s violated: %g < %g", c.Name, lhs, c.RHS)
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > rtol {
				return fmt.Errorf("constraint %s violated: %g != %g", c.Name, lhs, c.RHS)
			}
		}
	}
	return nil
}

// Objective evaluates the objective at x.
func (m *Model) Objective(x []float64) float64 {
	obj := 0.0
	for i, v := range m.Vars {
		obj += v.Obj * x[i]
	}
	return obj
}

// WriteLP renders the model in lp_solve-compatible LP format, the
// interchange format the paper's tool emits for its external solvers.
func (m *Model) WriteLP() string {
	var sb strings.Builder
	sb.WriteString("/* generated by repro/internal/ilp */\n")
	sb.WriteString("min: ")
	first := true
	for i, v := range m.Vars {
		if v.Obj == 0 {
			continue
		}
		writeCoeff(&sb, v.Obj, m.varName(i), &first)
	}
	if first {
		sb.WriteString("0")
	}
	sb.WriteString(";\n")
	for i := range m.Cons {
		c := &m.Cons[i]
		if c.Name != "" {
			fmt.Fprintf(&sb, "%s: ", sanitizeName(c.Name))
		}
		first := true
		for _, t := range c.Terms {
			writeCoeff(&sb, t.Coeff, m.varName(int(t.Var)), &first)
		}
		if first {
			sb.WriteString("0")
		}
		fmt.Fprintf(&sb, " %s %g;\n", c.Sense, c.RHS)
	}
	// Bounds for non-default ranges.
	for i, v := range m.Vars {
		if v.Kind == Binary {
			continue
		}
		if v.Lo != 0 {
			fmt.Fprintf(&sb, "%s >= %g;\n", m.varName(i), v.Lo)
		}
		if !math.IsInf(v.Hi, 1) {
			fmt.Fprintf(&sb, "%s <= %g;\n", m.varName(i), v.Hi)
		}
	}
	var bins, ints []string
	for i, v := range m.Vars {
		switch v.Kind {
		case Binary:
			bins = append(bins, m.varName(i))
		case Integer:
			ints = append(ints, m.varName(i))
		}
	}
	sort.Strings(bins)
	sort.Strings(ints)
	if len(bins) > 0 {
		fmt.Fprintf(&sb, "bin %s;\n", strings.Join(bins, ", "))
	}
	if len(ints) > 0 {
		fmt.Fprintf(&sb, "int %s;\n", strings.Join(ints, ", "))
	}
	return sb.String()
}

func writeCoeff(sb *strings.Builder, c float64, name string, first *bool) {
	switch {
	case *first:
		if c == 1 {
			sb.WriteString(name)
		} else if c == -1 {
			sb.WriteString("-" + name)
		} else {
			fmt.Fprintf(sb, "%g %s", c, name)
		}
		*first = false
	case c >= 0:
		if c == 1 {
			fmt.Fprintf(sb, " + %s", name)
		} else {
			fmt.Fprintf(sb, " + %g %s", c, name)
		}
	default:
		if c == -1 {
			fmt.Fprintf(sb, " - %s", name)
		} else {
			fmt.Fprintf(sb, " - %g %s", -c, name)
		}
	}
}

func (m *Model) varName(i int) string {
	n := m.Vars[i].Name
	if n == "" {
		return fmt.Sprintf("x%d", i)
	}
	return sanitizeName(n)
}

func sanitizeName(n string) string {
	var sb strings.Builder
	for _, r := range n {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "v"
	}
	return sb.String()
}
