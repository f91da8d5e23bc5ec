package solver

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/la"
	"repro/internal/obs"
)

func TestParseLinearSolver(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want LinearSolverKind
	}{
		{"", DirectSparse}, {"direct", DirectSparse}, {"matfree", MatrixFree},
	} {
		got, err := ParseLinearSolver(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseLinearSolver(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	for _, in := range []string{"cholesky", "gmres"} {
		_, err := ParseLinearSolver(in)
		if err == nil || !strings.Contains(err.Error(), "direct") || !strings.Contains(err.Error(), "matfree") {
			t.Fatalf("ParseLinearSolver(%q) error = %v, want one naming direct and matfree", in, err)
		}
	}
}

// TestSolveRejectsUnknownLinearSolver: a kind outside {DirectSparse,
// MatrixFree} (a corrupt option, or the retired value 1 decoded from an old
// shard) must fail before any assembly instead of running direct silently.
func TestSolveRejectsUnknownLinearSolver(t *testing.T) {
	for _, k := range []LinearSolverKind{1, 7, -1} {
		t.Run(k.String(), func(t *testing.T) {
			evals := 0
			sys := FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
				evals++
				return coupledCircle().F(x, jac)
			}}
			opt := NewOptions()
			opt.Linear = k
			_, err := Solve(context.Background(), sys, []float64{2, 1}, opt)
			if err == nil || !strings.Contains(err.Error(), "direct or matfree") {
				t.Fatalf("Solve with Linear=%d: err = %v, want an unknown-solver error", int(k), err)
			}
			if evals != 0 {
				t.Fatalf("Solve evaluated the system %d times before rejecting the kind", evals)
			}
			if k.String() == "direct" {
				t.Fatalf("LinearSolverKind(%d).String() reports direct", int(k))
			}
		})
	}
}

func fullTwoByTwo(a00 float64) *la.CSR {
	tr := la.NewTriplet(2, 2)
	tr.Append(0, 0, a00)
	tr.Append(0, 1, 1)
	tr.Append(1, 0, 1)
	tr.Append(1, 1, 2)
	return tr.Compress()
}

// TestDirectFactorRefactorBailout drives the frozen-pivot-order refactor
// through its growth bailout: the same-pattern path must fall back to a
// fresh pivoted factorisation (counted as a Factorization, not a
// Refactorization) and keep working afterwards.
func TestDirectFactorRefactorBailout(t *testing.T) {
	var d directFactor
	var st Stats
	opt := NewOptions()
	if err := d.factor(fullTwoByTwo(1), &st, opt); err != nil {
		t.Fatal(err)
	}
	if st.Factorizations != 1 {
		t.Fatalf("Factorizations = %d after first factor", st.Factorizations)
	}
	// Same pattern, but the tiny (0,0) pivot makes the frozen order unstable:
	// Refactor bails and a fresh threshold-pivoted factorisation takes over.
	if err := d.factor(fullTwoByTwo(1e-12), &st, opt); err != nil {
		t.Fatal(err)
	}
	if st.Factorizations != 2 || st.Refactorizations != 0 {
		t.Fatalf("after bailout: Factorizations/Refactorizations = %d/%d, want 2/0",
			st.Factorizations, st.Refactorizations)
	}
	// Well-scaled same-pattern values reuse the fresh symbolic analysis.
	if err := d.factor(fullTwoByTwo(3), &st, opt); err != nil {
		t.Fatal(err)
	}
	if st.Refactorizations != 1 {
		t.Fatalf("Refactorizations = %d, want 1", st.Refactorizations)
	}
	x := make([]float64, 2)
	d.f.Solve([]float64{4, 5}, x)
	// [[3,1],[1,2]]·x = [4,5] → x = (0.6, 2.2).
	if math.Abs(x[0]-0.6) > 1e-12 || math.Abs(x[1]-2.2) > 1e-12 {
		t.Fatalf("solve after refactor: %v", x)
	}
}

func coupledCircle() FuncSystem {
	return FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		r := []float64{x[0]*x[0] + x[1]*x[1] - 4, x[0] - x[1]}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(2, 2)
			tr.Append(0, 0, 2*x[0])
			tr.Append(0, 1, 2*x[1])
			tr.Append(1, 0, 1)
			tr.Append(1, 1, -1)
			j = tr.Compress()
		}
		return r, j, nil
	}}
}

// jacMFS is a MatrixFreeSystem whose Eval also returns the assembled
// Jacobian, so a failed GMRES solve can be rescued by a direct
// factorisation.
type jacMFS struct{ FuncSystem }

func (s jacMFS) Linearize(x []float64) ([]float64, la.Operator, error) {
	r, j, err := s.Eval(x, true)
	if err != nil {
		return nil, nil, err
	}
	return r, la.AsOperator(j), nil
}
func (s jacMFS) BuildPreconditioner() (la.Preconditioner, error) { return nil, nil }

// TestNewtonGMRESFallbackCounted starves matrix-free GMRES so the linear
// solve fails over to the direct factorisation: the Jacobian is a cyclic
// permutation (unpreconditioned GMRES needs all 3 Krylov steps) and the
// iteration budget is below the Krylov degree. Newton must still converge
// via the rescue, and the events must be counted and traced.
func TestNewtonGMRESFallbackCounted(t *testing.T) {
	perm := jacMFS{FuncSystem{N: 3, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
		r := []float64{x[1] - 1, x[2] - 2, x[0] - 3}
		var j *la.CSR
		if jac {
			tr := la.NewTriplet(3, 3)
			tr.Append(0, 1, 1)
			tr.Append(1, 2, 1)
			tr.Append(2, 0, 1)
			j = tr.Compress()
		}
		return r, j, nil
	}}}
	x := []float64{0, 0, 0}
	opt := NewOptions()
	opt.Linear = MatrixFree
	opt.GMRESIter = 2 // the cyclic operator needs 3 Krylov steps
	ctx := obs.WithRecorder(context.Background(), obs.NewRecorder())
	st, err := Solve(ctx, perm, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.GMRESFallbacks == 0 {
		t.Fatal("starved GMRES produced no counted fallbacks")
	}
	if st.Factorizations+st.Refactorizations == 0 {
		t.Fatal("fallback solved without a factorisation")
	}
	if len(st.Trace) == 0 || !st.Trace[0].Fallback {
		t.Fatalf("first iteration's trace record does not flag the fallback: %+v", st.Trace)
	}
	if math.Abs(x[0]-3) > 1e-8 || math.Abs(x[1]-1) > 1e-8 || math.Abs(x[2]-2) > 1e-8 {
		t.Fatalf("solution %v", x)
	}
}

// TestNewtonIterativeStats: the matrix-free path must count one
// preconditioner build per Jacobian refresh and, with no fallback, must not
// report a direct-solver fill factor.
func TestNewtonIterativeStats(t *testing.T) {
	x := []float64{2, 1}
	opt := NewOptions()
	opt.Linear = MatrixFree
	st, err := Solve(context.Background(), jacMFS{coupledCircle()}, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.PrecondBuilds == 0 {
		t.Fatal("preconditioner builds not counted")
	}
	if st.PrecondBuilds != st.JacobianEvals {
		t.Fatalf("PrecondBuilds = %d, JacobianEvals = %d: want one build per refresh",
			st.PrecondBuilds, st.JacobianEvals)
	}
	if st.FillFactor != 0 {
		t.Fatalf("FillFactor = %v on the iterative path, want 0", st.FillFactor)
	}
	if st.GMRESFallbacks != 0 || st.Factorizations != 0 {
		t.Fatalf("healthy GMRES path fell back: fallbacks=%d factorizations=%d",
			st.GMRESFallbacks, st.Factorizations)
	}
}

// TestShareLUBatchReuse runs two same-pattern solves against one LUShare:
// the first publishes its symbolic analysis, the second must start from a
// numeric-only refactorisation (BatchReuse) and never pay a symbolic phase.
func TestShareLUBatchReuse(t *testing.T) {
	affine := func(b0, b1 float64) FuncSystem {
		return FuncSystem{N: 2, F: func(x []float64, jac bool) ([]float64, *la.CSR, error) {
			r := []float64{3*x[0] + x[1] - b0, x[0] + 2*x[1] - b1}
			var j *la.CSR
			if jac {
				j = fullTwoByTwo(3)
			}
			return r, j, nil
		}}
	}
	share := &la.LUShare{}
	opt := NewOptions()
	opt.ShareLU = share
	x := []float64{0, 0}
	st1, err := Solve(context.Background(), affine(4, 5), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Factorizations == 0 || st1.BatchReuse != 0 {
		t.Fatalf("leader stats: %+v", st1)
	}
	y := []float64{0, 0}
	st2, err := Solve(context.Background(), affine(-1, 7), y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st2.BatchReuse == 0 {
		t.Fatal("follower did not reuse the published symbolic analysis")
	}
	if st2.Factorizations != 0 {
		t.Fatalf("follower paid %d symbolic factorisations", st2.Factorizations)
	}
	if math.Abs(3*y[0]+y[1]+1) > 1e-9 || math.Abs(y[0]+2*y[1]-7) > 1e-9 {
		t.Fatalf("follower solution %v", y)
	}
}

// linearMFS is a minimal MatrixFreeSystem: an affine residual with its exact
// Jacobian presented only as an operator.
type linearMFS struct {
	a *la.CSR
	b []float64
	r []float64
}

func (s *linearMFS) Size() int { return len(s.b) }
func (s *linearMFS) Eval(x []float64, jac bool) ([]float64, *la.CSR, error) {
	s.a.MulVec(x, s.r)
	for i := range s.r {
		s.r[i] -= s.b[i]
	}
	return s.r, nil, nil
}
func (s *linearMFS) Linearize(x []float64) ([]float64, la.Operator, error) {
	r, _, err := s.Eval(x, false)
	return r, la.AsOperator(s.a), err
}
func (s *linearMFS) BuildPreconditioner() (la.Preconditioner, error) {
	return la.IdentityPreconditioner{}, nil
}

func TestNewtonMatrixFree(t *testing.T) {
	sys := &linearMFS{a: fullTwoByTwo(3), b: []float64{4, 5}, r: make([]float64, 2)}
	x := []float64{0, 0}
	opt := NewOptions()
	opt.Linear = MatrixFree
	st, err := Solve(context.Background(), sys, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.OperatorApplies == 0 || st.PrecondBuilds == 0 || st.LinearIters == 0 {
		t.Fatalf("matrix-free stats not counted: %+v", st)
	}
	if st.Factorizations != 0 || st.GMRESFallbacks != 0 {
		t.Fatalf("matrix-free path assembled a factorisation: %+v", st)
	}
	if math.Abs(x[0]-0.6) > 1e-8 || math.Abs(x[1]-2.2) > 1e-8 {
		t.Fatalf("solution %v", x)
	}
}

func TestNewtonMatrixFreeNeedsInterface(t *testing.T) {
	opt := NewOptions()
	opt.Linear = MatrixFree
	if _, err := Solve(context.Background(), coupledCircle(), []float64{1, 1}, opt); err == nil {
		t.Fatal("MatrixFree accepted a system without Linearize")
	}
}
