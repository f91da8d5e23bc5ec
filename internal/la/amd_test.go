package la

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mnaFamily builds count same-pattern, different-value matrices shaped like
// modified nodal analysis: nodes joined by conductances (a ring plus random
// chords, each node with a small leak to ground), unsymmetric
// transconductances, and vsrc voltage-source branches. A branch row and
// column couple one node to the branch current, and the branch diagonal is
// structurally zero, so those columns can only pivot off the diagonal.
func mnaFamily(nodes, vsrc, count int, seed int64) []*CSR {
	rng := rand.New(rand.NewSource(seed))
	type edge struct{ a, b int }
	var cond, gm []edge
	for i := 0; i < nodes; i++ {
		cond = append(cond, edge{i, (i + 1) % nodes}, edge{i, rng.Intn(nodes)})
	}
	for k := 0; k < nodes/2; k++ {
		gm = append(gm, edge{rng.Intn(nodes), rng.Intn(nodes)})
	}
	src := rng.Perm(nodes)[:vsrc] // the node each source drives
	out := make([]*CSR, count)
	for c := range out {
		tr := NewTriplet(nodes+vsrc, nodes+vsrc)
		for i := 0; i < nodes; i++ {
			tr.Append(i, i, 0.01)
		}
		for _, e := range cond {
			g := 0.1 + rng.Float64()
			tr.Append(e.a, e.a, g)
			if e.a != e.b {
				tr.Append(e.b, e.b, g)
				tr.Append(e.a, e.b, -g)
				tr.Append(e.b, e.a, -g)
			}
		}
		for _, e := range gm {
			tr.Append(e.a, e.b, 0.5*rng.NormFloat64())
		}
		for k, a := range src {
			tr.Append(a, nodes+k, 1)
			tr.Append(nodes+k, a, 1)
		}
		out[c] = tr.Compress()
	}
	return out
}

// gridLaplacian is the 5-point Laplacian of an m×m grid in natural
// (row-by-row) order: bandwidth m, so a natural-order LU fills the band.
func gridLaplacian(m int) *CSR {
	tr := NewTriplet(m*m, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			p := i*m + j
			tr.Append(p, p, 4.5)
			if i > 0 {
				tr.Append(p, p-m, -1)
			}
			if i < m-1 {
				tr.Append(p, p+m, -1)
			}
			if j > 0 {
				tr.Append(p, p-1, -1)
			}
			if j < m-1 {
				tr.Append(p, p+1, -1)
			}
		}
	}
	return tr.Compress()
}

func isPermutation(q []int, n int) bool {
	if len(q) != n {
		return false
	}
	seen := make([]bool, n)
	for _, j := range q {
		if j < 0 || j >= n || seen[j] {
			return false
		}
		seen[j] = true
	}
	return true
}

func relResidual(a *CSR, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(x, r)
	Axpy(-1, b, r)
	return Norm2(r) / Norm2(b)
}

func sinRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) + 0.5)
	}
	return b
}

// The column order is a permutation that depends on the pattern alone, and
// the factorisation uses exactly that order.
func TestAMDOrderIsPatternOnlyPermutation(t *testing.T) {
	fams := map[string][]*CSR{
		"banded": batchFamily(60, 2, 5),
		"mna":    mnaFamily(90, 14, 2, 6),
		"random": {randomSparse(rand.New(rand.NewSource(7)), 40, 0.1)},
	}
	// Same pattern, different values: every value scaled and shifted.
	r := fams["random"][0]
	r2 := &CSR{Rows: r.Rows, Cols: r.Cols, RowPtr: r.RowPtr, ColIdx: r.ColIdx, Val: make([]float64, len(r.Val))}
	for k, v := range r.Val {
		r2.Val[k] = 3*v + 1
	}
	fams["random"] = append(fams["random"], r2)
	for name, fam := range fams {
		q := amdOrder(fam[0])
		if !isPermutation(q, fam[0].Rows) {
			t.Fatalf("%s: order %v is not a permutation of 0..%d", name, q, fam[0].Rows-1)
		}
		if q2 := amdOrder(fam[1]); !sameInts(q, q2) {
			t.Fatalf("%s: same pattern, different values, different orders:\n%v\n%v", name, q, q2)
		}
		f, err := SparseLUFactor(fam[1], 0.001)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameInts(f.q, q) {
			t.Fatalf("%s: SparseLUFactor used order %v, amdOrder gives %v", name, f.q, q)
		}
	}
}

// An arrow matrix whose hub is column 0 fills completely in natural order.
// The hub row is dense (199 > 10·√200 entries), so the ordering must put it
// last, and the factors then keep the arrow's own pattern.
func TestAMDOrdersDenseHubLast(t *testing.T) {
	const n = 200
	tr := NewTriplet(n, n)
	tr.Append(0, 0, n)
	for i := 1; i < n; i++ {
		tr.Append(i, i, 2)
		tr.Append(0, i, 1)
		tr.Append(i, 0, 1)
	}
	a := tr.Compress()
	q := amdOrder(a)
	if q[n-1] != 0 {
		t.Fatalf("dense hub ordered at position %d, want last", indexOf(q, 0))
	}
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if f.NNZ() != a.NNZ()+n { // A's entries plus L's unit diagonal
		t.Fatalf("arrow LU stores %d entries, want %d (no fill)", f.NNZ(), a.NNZ()+n)
	}
	x := make([]float64, n)
	b := sinRHS(n)
	f.Solve(b, x)
	if rr := relResidual(a, x, b); rr > 1e-12 {
		t.Fatalf("arrow solve relative residual %.3e", rr)
	}
}

func indexOf(q []int, j int) int {
	for k, v := range q {
		if v == j {
			return k
		}
	}
	return -1
}

// A 40×40 grid Laplacian factored in natural order fills its band: about
// 2·40 entries per row, 1600·81 = 129,600 in L+U. Minimum degree keeps well
// under half of that. The grid is large enough to run the quotient graph's
// element absorption, mass elimination and supernode merging.
func TestAMDReducesGridFill(t *testing.T) {
	const m = 40
	a := gridLaplacian(m)
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if band := m * m * (2*m + 1); f.NNZ() > band/2 {
		t.Fatalf("grid LU stores %d entries, want at most %d (half the natural band)", f.NNZ(), band/2)
	}
	x := make([]float64, m*m)
	b := sinRHS(m * m)
	f.Solve(b, x)
	if rr := relResidual(a, x, b); rr > 1e-12 {
		t.Fatalf("grid solve relative residual %.3e", rr)
	}
}

// Ordered solves of unsymmetric MNA-like systems, zero-diagonal branch rows
// included, reach the residual a natural-order solve reaches, and agree
// with dense LU.
func TestSparseLUOrderedMNASolve(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		nodes := 20 + int(seed)*7
		a := mnaFamily(nodes, 2+int(seed)%5, 1, seed)[0]
		n := a.Rows
		f, err := SparseLUFactor(a, 0.001)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := sinRHS(n)
		x := make([]float64, n)
		f.Solve(b, x)
		if rr := relResidual(a, x, b); rr > 1e-12 {
			t.Fatalf("seed %d: relative residual %.3e > 1e-12", seed, rr)
		}
		xd, err := SolveDense(a.Dense(), b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-xd[i]) > 1e-8*(1+math.Abs(xd[i])) {
				t.Fatalf("seed %d: x[%d] = %v, dense %v", seed, i, x[i], xd[i])
			}
		}
	}
}

// dropColumn returns a copy of a without any entry in column c.
func dropColumn(a *CSR, c int) *CSR {
	tr := NewTriplet(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.ColIdx[p] != c {
				tr.Append(i, a.ColIdx[p], a.Val[p])
			}
		}
	}
	return tr.Compress()
}

// A structurally zero column is reported by its index in A, not by the
// position the ordering moved it to.
func TestSparseLUSingularNamesOriginalColumn(t *testing.T) {
	a := mnaFamily(40, 4, 1, 11)[0]
	for c := 0; c < a.Cols; c++ {
		z := dropColumn(a, c)
		k := indexOf(amdOrder(z), c)
		if k == c {
			continue // the ordering left this column in place: not the case under test
		}
		_, err := SparseLUFactor(z, 0.001)
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("zero column %d: err = %v, want ErrSingular", c, err)
		}
		if want := fmt.Sprintf("(column %d)", c); !strings.Contains(err.Error(), want) {
			t.Fatalf("zero column %d (eliminated at position %d): %q does not name %s", c, k, err, want)
		}
		return
	}
	t.Fatal("the ordering moved no column; the test matrix no longer exercises the permutation")
}

// An unstable pivot found by Refactor is likewise reported by its column
// of A.
func TestSparseLURefactorNamesOriginalColumn(t *testing.T) {
	a := mnaFamily(40, 4, 1, 13)[0]
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	c := -1
	for k, j := range f.q {
		if k != j {
			c = j
			break
		}
	}
	if c < 0 {
		t.Fatal("the ordering moved no column; the test matrix no longer exercises the permutation")
	}
	// Same pattern, column c numerically zero: its pivot vanishes.
	z := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: append([]float64(nil), a.Val...)}
	for k, j := range z.ColIdx {
		if j == c {
			z.Val[k] = 0
		}
	}
	err = f.Refactor(z)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if want := fmt.Sprintf("at column %d)", c); !strings.Contains(err.Error(), want) {
		t.Fatalf("%q does not name column %d (eliminated at position %d)", err, c, indexOf(f.q, c))
	}
}

// Every consumer of a shared symbolic analysis shares its column order and
// solves through it.
func TestSymbolicSharingKeepsColumnOrder(t *testing.T) {
	fam := mnaFamily(70, 6, 3, 17)
	n := fam[0].Rows
	b := sinRHS(n)
	x := make([]float64, n)
	check := func(what string, want, q []int, a *CSR, solve func(b, x []float64)) {
		t.Helper()
		if &q[0] != &want[0] {
			t.Fatalf("%s: column order copied, not shared", what)
		}
		solve(b, x)
		if rr := relResidual(a, x, b); rr > 1e-12 {
			t.Fatalf("%s: relative residual %.3e", what, rr)
		}
	}
	f, err := SparseLUFactor(fam[0], 0.001)
	if err != nil {
		t.Fatal(err)
	}
	c := f.CloneSymbolic()
	if err := c.Refactor(fam[1]); err != nil {
		t.Fatal(err)
	}
	check("CloneSymbolic", f.q, c.q, fam[1], c.Solve)

	var s LUShare
	s.Publish(f)
	g := s.Acquire(fam[2])
	if err := g.Refactor(fam[2]); err != nil {
		t.Fatal(err)
	}
	check("LUShare", f.q, g.q, fam[2], g.Solve)

	bl, err := NewBatchLU(fam[0], 0.001, len(fam))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range fam {
		if _, err := bl.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	if bl.Fallbacks != 0 {
		t.Fatalf("BatchLU fell back %d times", bl.Fallbacks)
	}
	if !sameInts(bl.sym.q, f.q) {
		t.Fatal("BatchLU ordered the same pattern differently")
	}
	for k, a := range fam {
		check(fmt.Sprintf("BatchLU slot %d", k), bl.sym.q, bl.sym.q, a, func(b, x []float64) { bl.Solve(k, b, x) })
	}
}

func TestSparseLUTinyMatrices(t *testing.T) {
	empty, err := SparseLUFactor(NewTriplet(0, 0).Compress(), 0.001)
	if err != nil {
		t.Fatalf("0×0: %v", err)
	}
	empty.Solve(nil, nil)
	if empty.NNZ() != 0 || empty.FillFactor != 0 {
		t.Fatalf("0×0: NNZ %d, fill %v", empty.NNZ(), empty.FillFactor)
	}

	tr := NewTriplet(1, 1)
	tr.Append(0, 0, 4)
	one, err := SparseLUFactor(tr.Compress(), 0.001)
	if err != nil {
		t.Fatalf("1×1: %v", err)
	}
	x := []float64{0}
	one.Solve([]float64{2}, x)
	if x[0] != 0.5 {
		t.Fatalf("1×1: x = %v, want 0.5", x[0])
	}

	tr = NewTriplet(1, 1)
	tr.Append(0, 0, 0)
	if _, err := SparseLUFactor(tr.Compress(), 0.001); !errors.Is(err, ErrSingular) {
		t.Fatalf("1×1 zero: err = %v, want ErrSingular", err)
	}
}

func TestRefactorOrFactor(t *testing.T) {
	fam := mnaFamily(30, 3, 2, 19)
	f, refactored, err := RefactorOrFactor(nil, fam[0], 0.001)
	if err != nil || refactored {
		t.Fatalf("nil factorisation: refactored=%v err=%v, want a fresh factor", refactored, err)
	}
	g, refactored, err := RefactorOrFactor(f, fam[1], 0.001)
	if err != nil || !refactored || g != f {
		t.Fatalf("same pattern: refactored=%v same=%v err=%v, want f refactored in place", refactored, g == f, err)
	}
	other := mnaFamily(31, 3, 1, 19)[0]
	h, refactored, err := RefactorOrFactor(f, other, 0.001)
	if err != nil || refactored || h == f {
		t.Fatalf("new pattern: refactored=%v same=%v err=%v, want a fresh factor", refactored, h == f, err)
	}
	x := make([]float64, other.Rows)
	b := sinRHS(other.Rows)
	h.Solve(b, x)
	if rr := relResidual(other, x, b); rr > 1e-12 {
		t.Fatalf("fresh factor: relative residual %.3e", rr)
	}
}

// Refactor replays the factorisation's elimination order, so refactoring
// the matrix a factorisation was computed from reproduces its factors bit
// for bit.
func TestRefactorReproducesFactorBitwise(t *testing.T) {
	a := mnaFamily(120, 9, 1, 23)[0]
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	lx := append([]float64(nil), f.lx...)
	ux := append([]float64(nil), f.ux...)
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	for p := range lx {
		if math.Float64bits(lx[p]) != math.Float64bits(f.lx[p]) {
			t.Fatalf("L value %d: factor %v, refactor %v", p, lx[p], f.lx[p])
		}
	}
	for p := range ux {
		if math.Float64bits(ux[p]) != math.Float64bits(f.ux[p]) {
			t.Fatalf("U value %d: factor %v, refactor %v", p, ux[p], f.ux[p])
		}
	}
}
