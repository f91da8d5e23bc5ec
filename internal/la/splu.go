package la

import (
	"fmt"
	"math"
	"time"
)

// SparseLU is a left-looking sparse LU factorisation with partial pivoting
// (Gilbert–Peierls, in the style of CSparse's cs_lu): P·A·Q = L·U, with L
// unit lower triangular. Q is a fill-reducing column order, an approximate
// minimum degree ordering of A+Aᵀ computed in the symbolic phase; P is the
// row order partial pivoting chooses as the columns are eliminated. Both
// factors are stored column-wise.
//
// A factorisation remembers its symbolic analysis — the column order, the
// elimination pattern, the pivot order, and the column view of A — so a
// matrix with the same sparsity pattern but new values can be re-decomposed
// by Refactor at the cost of the numeric phase alone. This is the hot-path
// configuration of the MPDE Newton iteration, whose Jacobian pattern is
// fixed across iterations.
type SparseLU struct {
	n          int
	lp, li     []int
	lx         []float64
	up, ui     []int
	ux         []float64
	q          []int // column k of L·U is column q[k] of A
	pinv       []int // original row i is pivotal for column pinv[i]
	FillFactor float64
	// FactorWall is the wall-clock time of the full factorisation, the
	// column ordering and the rest of the symbolic phase included;
	// RefactorWall accumulates the numeric-only Refactor times against this
	// analysis. Observability only — excluded from every byte-stable export.
	FactorWall   time.Duration
	RefactorWall time.Duration

	// Symbolic-reuse state: a snapshot of the pattern the factorisation was
	// computed from (copies, not references — the caller may rebuild its
	// matrix in place, so aliasing the original slices would make the
	// pattern check vacuous) and the CSC view of A, its columns in q
	// order, with a gather map into the CSR value array.
	aRowPtr, aColIdx []int
	atp, ati, atMap  []int
	work             []float64 // refactor scratch
	swork            []float64 // solve scratch
}

// cscView is the column view of a with its columns taken in q order
// (column k of the view is column q[k] of a), plus a gather map back into
// a.Val.
func cscView(a *CSR, q []int) (atp, ati, atMap []int, atv []float64) {
	n := a.Cols
	nnz := a.NNZ()
	pos := make([]int, n) // pos[j] is the position of column j in q
	for k, j := range q {
		pos[j] = k
	}
	atp = make([]int, n+1)
	for _, j := range a.ColIdx {
		atp[pos[j]+1]++
	}
	for j := 0; j < n; j++ {
		atp[j+1] += atp[j]
	}
	ati = make([]int, nnz)
	atMap = make([]int, nnz)
	atv = make([]float64, nnz)
	next := make([]int, n)
	copy(next, atp[:n])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := pos[a.ColIdx[k]]
			p := next[j]
			ati[p] = i
			atMap[p] = k
			atv[p] = a.Val[k]
			next[j]++
		}
	}
	return atp, ati, atMap, atv
}

// SparseLUFactor computes P·A·Q = L·U. The symbolic phase orders the
// columns (Q) by approximate minimum degree on the pattern of A+Aᵀ, so the
// order depends on the pattern alone; the numeric phase then picks rows (P)
// by threshold partial pivoting. tol in (0,1] controls diagonal preference:
// when eliminating column j of A, the diagonal entry a_jj is kept as pivot
// when |a_jj| ≥ tol·max|column|; tol=1 is classic partial pivoting,
// tol≈0.001 keeps fill low on diagonally dominant MNA systems. A must be
// square. A structurally or numerically singular A fails with ErrSingular,
// naming the column of A where elimination broke down.
func SparseLUFactor(a *CSR, tol float64) (*SparseLU, error) {
	t0 := time.Now()
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	if tol <= 0 || tol > 1 {
		tol = 1
	}
	n := a.Rows
	q := amdOrder(a)
	// Column access: the CSC view of A in elimination order.
	atp, ati, atMap, atv := cscView(a, q)

	f := &SparseLU{n: n, q: q,
		aRowPtr: append([]int(nil), a.RowPtr...),
		aColIdx: append([]int(nil), a.ColIdx...),
		atp:     atp, ati: ati, atMap: atMap}
	f.lp = make([]int, n+1)
	f.up = make([]int, n+1)
	// Room for each factor to hold twice A's entries plus the diagonal
	// (fill up to about 4) before append has to grow it.
	est := 2*a.NNZ() + n
	f.li, f.lx = make([]int, 0, est), make([]float64, 0, est)
	f.ui, f.ux = make([]int, 0, est), make([]float64, 0, est)
	f.pinv = make([]int, n)
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	x := make([]float64, n)
	xi := make([]int, n)     // topological pattern of the sparse solve
	stack := make([]int, n)  // DFS stack of nodes
	pstack := make([]int, n) // DFS stack of child positions
	mark := make([]int, n)   // visitation stamps
	stamp := 0

	for k := 0; k < n; k++ {
		// --- symbolic: pattern of x = L \ A(:,k) via DFS over L's columns ---
		stamp++
		top := n
		for p := atp[k]; p < atp[k+1]; p++ {
			root := ati[p]
			if mark[root] == stamp {
				continue
			}
			// Iterative DFS with explicit child-position stack.
			head := 0
			stack[0] = root
			for head >= 0 {
				j := stack[head]
				if mark[j] != stamp {
					mark[j] = stamp
					if jn := f.pinv[j]; jn >= 0 {
						pstack[head] = f.lp[jn] + 1 // skip unit diagonal entry
					} else {
						pstack[head] = 0 // no children
					}
				}
				done := true
				if jn := f.pinv[j]; jn >= 0 {
					for pp := pstack[head]; pp < f.lp[jn+1]; pp++ {
						child := f.li[pp]
						if mark[child] != stamp {
							pstack[head] = pp + 1
							head++
							stack[head] = child
							done = false
							break
						}
					}
				}
				if done {
					head--
					top--
					xi[top] = j
				}
			}
		}
		// --- numeric: scatter A(:,q[k]) and run the sparse triangular solve
		// (x is zero outside the pattern: each column clears its own) ---
		for p := atp[k]; p < atp[k+1]; p++ {
			x[ati[p]] = atv[p]
		}
		for p := top; p < n; p++ {
			j := xi[p]
			jn := f.pinv[j]
			if jn < 0 {
				continue
			}
			xj := x[j] // L has unit diagonal; no division
			for pp := f.lp[jn] + 1; pp < f.lp[jn+1]; pp++ {
				x[f.li[pp]] -= f.lx[pp] * xj
			}
		}
		// --- pivot selection among not-yet-pivotal rows ---
		ipiv, amax := -1, 0.0
		for p := top; p < n; p++ {
			j := xi[p]
			if f.pinv[j] < 0 {
				if a := math.Abs(x[j]); a > amax {
					ipiv, amax = j, a
				}
			}
		}
		col := q[k]
		if ipiv < 0 || amax == 0 {
			return nil, fmt.Errorf("%w (column %d)", ErrSingular, col)
		}
		// Prefer the diagonal when it is acceptably large (reduces fill).
		if f.pinv[col] < 0 && math.Abs(x[col]) >= tol*amax {
			ipiv = col
		}
		pivot := x[ipiv]
		f.pinv[ipiv] = k
		// --- append column k of U (pivotal rows) and L (non-pivotal rows).
		// U keeps the topological order of xi, the order this column was
		// eliminated in, so Refactor replays the same arithmetic. ---
		for p := top; p < n; p++ {
			j := xi[p]
			if jn := f.pinv[j]; jn >= 0 && j != ipiv {
				f.ui = append(f.ui, jn)
				f.ux = append(f.ux, x[j])
			}
		}
		f.ui = append(f.ui, k) // diagonal of U, stored last in its column
		f.ux = append(f.ux, pivot)
		f.up[k+1] = len(f.ux)

		f.li = append(f.li, ipiv) // unit diagonal of L, stored first
		f.lx = append(f.lx, 1)
		for p := top; p < n; p++ {
			j := xi[p]
			if f.pinv[j] < 0 {
				f.li = append(f.li, j)
				f.lx = append(f.lx, x[j]/pivot)
			}
			x[j] = 0
		}
		f.lp[k+1] = len(f.lx)
	}
	// Remap L's row indices from original numbering to pivotal numbering.
	for p := range f.li {
		f.li[p] = f.pinv[f.li[p]]
	}
	if nnz := a.NNZ(); nnz > 0 {
		f.FillFactor = float64(len(f.lx)+len(f.ux)) / float64(nnz)
	}
	f.FactorWall = time.Since(t0)
	return f, nil
}

// refactorGrowth bounds the element growth a pivot-order-preserving
// refactorisation accepts before bailing out to a fresh factorisation.
const refactorGrowth = 1e8

// SamePattern reports whether a has exactly the sparsity pattern this
// factorisation was computed from, by comparing against the pattern
// snapshot taken at factor time. The O(nnz) integer compare is noise next
// to the numeric refactorisation it gates, and — unlike a slice-identity
// shortcut — it stays correct when the caller rebuilds a matrix in place
// (e.g. Triplet.CompressInto into the same destination).
func (f *SparseLU) SamePattern(a *CSR) bool {
	return a.Rows == f.n && a.Cols == f.n &&
		sameInts(a.RowPtr, f.aRowPtr) && sameInts(a.ColIdx, f.aColIdx)
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Refactor recomputes the numeric factorisation for a matrix with the same
// sparsity pattern as the one the factorisation was created from, reusing
// the symbolic analysis and the pivot order. It costs one sparse triangular
// sweep — no DFS, no pivot search, no allocation — which is the payoff for
// Jacobians whose pattern is fixed across Newton iterations. It fails (and
// leaves the factors unusable) when the pattern differs, a pivot vanishes,
// or element growth exceeds a stability bound; callers then fall back to
// SparseLUFactor.
//
//mpde:hotpath
func (f *SparseLU) Refactor(a *CSR) error {
	t0 := time.Now()
	err := f.refactorInto(a, f.lx, f.ux)
	f.RefactorWall += time.Since(t0)
	return err
}

// RefactorOrFactor returns a factorisation of a, reusing f where it can:
// when a has the pattern f was computed from and f's frozen pivot order
// stays stable, f is refactored in place and refactored is true. Otherwise
// (f nil, a new pattern, or an unstable pivot, after which f's values are
// unusable) it returns a fresh SparseLUFactor(a, tol). A loop that factors
// a same-pattern matrix at every step thus pays the symbolic phase, the
// column ordering included, once.
func RefactorOrFactor(f *SparseLU, a *CSR, tol float64) (g *SparseLU, refactored bool, err error) {
	if f != nil && f.SamePattern(a) && f.Refactor(a) == nil {
		return f, true, nil
	}
	g, err = SparseLUFactor(a, tol)
	return g, false, err
}

// refactorInto runs the numeric-only refactorisation against the shared
// symbolic analysis, writing the factors into lx/ux (which must have the
// factorisation's own layout — either its private arrays or a batch slot
// initialised from them). L's unit-diagonal positions are never rewritten,
// so destination slots must already carry the 1s.
//
//mpde:hotpath
func (f *SparseLU) refactorInto(a *CSR, lx, ux []float64) error {
	if !f.SamePattern(a) { //mpde:coldpath pattern mismatch aborts the refactor
		return fmt.Errorf("la: refactor pattern mismatch (want the factored %d×%d pattern)", f.n, f.n)
	}
	n := f.n
	if f.work == nil { //mpde:alloc-ok lazy scratch init, amortised over refactors
		f.work = make([]float64, n)
	}
	x := f.work
	for k := 0; k < n; k++ {
		// Zero the column's pattern, scatter A(:,k) in pivotal numbering.
		for p := f.up[k]; p < f.up[k+1]; p++ {
			x[f.ui[p]] = 0
		}
		for p := f.lp[k]; p < f.lp[k+1]; p++ {
			x[f.li[p]] = 0
		}
		for p := f.atp[k]; p < f.atp[k+1]; p++ {
			x[f.pinv[f.ati[p]]] = a.Val[f.atMap[p]]
		}
		// Eliminate with the already-refactored columns, in the
		// topological order U's off-diagonal entries were stored in.
		for p := f.up[k]; p < f.up[k+1]-1; p++ {
			j := f.ui[p]
			xj := x[j]
			ux[p] = xj
			if xj == 0 {
				continue
			}
			for q := f.lp[j] + 1; q < f.lp[j+1]; q++ {
				x[f.li[q]] -= lx[q] * xj
			}
		}
		pivot := x[k]
		maxBelow := 0.0
		for q := f.lp[k] + 1; q < f.lp[k+1]; q++ {
			if av := math.Abs(x[f.li[q]]); av > maxBelow {
				maxBelow = av
			}
		}
		if pivot == 0 || math.IsNaN(pivot) || maxBelow > refactorGrowth*math.Abs(pivot) { //mpde:coldpath singular pivot aborts the refactor
			return fmt.Errorf("%w (refactor: unstable pivot %.3e at column %d)", ErrSingular, pivot, f.q[k])
		}
		ux[f.up[k+1]-1] = pivot
		for q := f.lp[k] + 1; q < f.lp[k+1]; q++ {
			lx[q] = x[f.li[q]] / pivot
		}
	}
	return nil
}

// Solve solves A·x = b. x and b may alias. The factorisation owns the solve
// scratch, so repeated calls do not allocate — but two goroutines must not
// Solve through the same factorisation concurrently.
//
//mpde:hotpath
func (f *SparseLU) Solve(b, x []float64) {
	f.solveWith(f.lx, f.ux, b, x)
}

// solveWith runs the triangular solves against the given value arrays
// (the factorisation's own, or a batch slot sharing its layout).
//
//mpde:hotpath
func (f *SparseLU) solveWith(lx, ux, b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(ErrShape)
	}
	if f.swork == nil { //mpde:alloc-ok lazy scratch init, amortised over solves
		f.swork = make([]float64, n)
	}
	y := f.swork
	for i := 0; i < n; i++ {
		y[f.pinv[i]] = b[i]
	}
	// Forward: L·z = P·b (unit diagonal first in each column).
	for j := 0; j < n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			y[f.li[p]] -= lx[p] * yj
		}
	}
	// Backward: U·z' = z (diagonal last in each column), then x = Q·z'.
	for j := n - 1; j >= 0; j-- {
		d := ux[f.up[j+1]-1]
		y[j] /= d
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := f.up[j]; p < f.up[j+1]-1; p++ {
			y[f.ui[p]] -= ux[p] * yj
		}
	}
	for k, j := range f.q {
		x[j] = y[k]
	}
}

// CloneSymbolic returns a factorisation sharing this one's symbolic analysis
// (pattern, column and pivot orders, CSC gather map — all read-only after
// factorisation) with fresh private value arrays and scratch. The clone must
// be Refactored against a same-pattern matrix before its factors are
// meaningful; until then it carries this factorisation's values. Clones are
// independent: each owns its scratch, so different goroutines may use
// different clones concurrently.
func (f *SparseLU) CloneSymbolic() *SparseLU {
	c := *f
	c.lx = append([]float64(nil), f.lx...)
	c.ux = append([]float64(nil), f.ux...)
	c.work, c.swork = nil, nil
	return &c
}

// NNZ returns the total stored entries in L and U.
func (f *SparseLU) NNZ() int { return len(f.lx) + len(f.ux) }
