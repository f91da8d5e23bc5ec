package la

import "math"

// amdOrder returns an approximate minimum degree ordering of the pattern of
// A+Aᵀ (Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl. 17(4), 1996): q[k]
// is the column of A that the factorisation eliminates k-th. It is a port of
// cs_amd from T. A. Davis, Direct Methods for Sparse Linear Systems (SIAM
// 2006) on its quotient graph, with dense-row handling, element absorption,
// mass elimination, supernode detection and an assembly-tree postorder.
//
// The order is a pure function of the pattern: values are never read, and
// every choice among equal degrees falls to the head of that degree's list,
// whose order follows from the pattern alone. The initial lists are built
// so that their heads are the lowest indices, which breaks the first ties
// by index.
func amdOrder(a *CSR) []int {
	n := a.Rows
	if n == 0 {
		return []int{}
	}
	cp, ci := symPattern(a)
	cnz := cp[n]
	nzmax := len(ci)
	// Rows with more than dense off-diagonal entries are ordered last.
	dense := min(n-2, int(math.Max(16, 10*math.Sqrt(float64(n)))))

	ws := make([]int, 9*(n+1))
	length, nv, next := ws[0:n+1], ws[n+1:2*(n+1)], ws[2*(n+1):3*(n+1)]
	head, elen, degree := ws[3*(n+1):4*(n+1)], ws[4*(n+1):5*(n+1)], ws[5*(n+1):6*(n+1)]
	w, hhead, last := ws[6*(n+1):7*(n+1)], ws[7*(n+1):8*(n+1)], ws[8*(n+1):]

	// --- Initialise the quotient graph ---
	for k := 0; k < n; k++ {
		length[k] = cp[k+1] - cp[k]
	}
	for i := 0; i <= n; i++ {
		head[i], last[i], next[i], hhead[i] = -1, -1, -1, -1
		nv[i] = 1 // node i stands for one column
		w[i] = 1  // node i is alive
		elen[i] = 0
		degree[i] = length[i]
	}
	mark := amdClearW(0, 0, w, n)
	elen[n] = -2 // n is a dead element: the root that absorbs dense nodes
	cp[n] = -1
	w[n] = 0

	// --- Initialise the degree lists (descending, so heads are lowest) ---
	nel := 0
	for i := n - 1; i >= 0; i-- {
		switch d := degree[i]; {
		case d == 0: // empty node: eliminate now, a root of the tree
			elen[i] = -2
			nel++
			cp[i] = -1
			w[i] = 0
		case d > dense: // dense node: absorb into element n
			nv[i] = 0
			elen[i] = -1
			nel++
			cp[i] = amdFlip(n)
			nv[n]++
		default:
			if head[d] != -1 {
				last[head[d]] = i
			}
			next[i] = head[d]
			head[d] = i
		}
	}

	mindeg, lemax := 0, 0
	for nel < n {
		// --- Select the node of minimum approximate degree ---
		k := head[mindeg]
		for k == -1 {
			mindeg++
			k = head[mindeg]
		}
		if next[k] != -1 {
			last[next[k]] = -1
		}
		head[mindeg] = next[k]
		elenk := elen[k]
		nvk := nv[k]
		nel += nvk

		// --- Garbage collection ---
		if elenk > 0 && cnz+mindeg >= nzmax {
			for j := 0; j < n; j++ {
				if p := cp[j]; p >= 0 { // live node or element: tag its head
					cp[j] = ci[p]
					ci[p] = amdFlip(j)
				}
			}
			q := 0
			for p := 0; p < cnz; {
				j := amdFlip(ci[p])
				p++
				if j >= 0 { // start of object j
					ci[q] = cp[j]
					cp[j] = q
					q++
					for k3 := 0; k3 < length[j]-1; k3++ {
						ci[q] = ci[p]
						q++
						p++
					}
				}
			}
			cnz = q
		}

		// --- Construct the new element Lk ---
		dk := 0
		nv[k] = -nvk // flag k as in Lk
		p := cp[k]
		pk1 := cnz // build Lk at the end of memory...
		if elenk == 0 {
			pk1 = p // ...or in place when k is adjacent to no element
		}
		pk2 := pk1
		for k1 := 1; k1 <= elenk+1; k1++ {
			var e, pj, ln int
			if k1 > elenk {
				e, pj, ln = k, p, length[k]-elenk // the nodes of k itself
			} else {
				e = ci[p]
				p++
				pj, ln = cp[e], length[e] // the nodes of element e
			}
			for k2 := 1; k2 <= ln; k2++ {
				i := ci[pj]
				pj++
				nvi := nv[i]
				if nvi <= 0 { // dead, or already in Lk
					continue
				}
				dk += nvi
				nv[i] = -nvi
				ci[pk2] = i
				pk2++
				if next[i] != -1 {
					last[next[i]] = last[i]
				}
				if last[i] != -1 { // unlink i from its degree list
					next[last[i]] = next[i]
				} else {
					head[degree[i]] = next[i]
				}
			}
			if e != k { // absorb element e into k
				cp[e] = amdFlip(k)
				w[e] = 0
			}
		}
		if elenk != 0 {
			cnz = pk2
		}
		degree[k] = dk
		cp[k] = pk1
		length[k] = pk2 - pk1
		elen[k] = -2 // k is now an element

		// --- Set differences |Le \ Lk| for every element adjacent to Lk ---
		mark = amdClearW(mark, lemax, w, n)
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			eln := elen[i]
			if eln <= 0 {
				continue
			}
			nvi := -nv[i]
			wnvi := mark - nvi
			for p := cp[i]; p <= cp[i]+eln-1; p++ {
				e := ci[p]
				if w[e] >= mark {
					w[e] -= nvi
				} else if w[e] != 0 { // first sight of a live element
					w[e] = degree[e] + wnvi
				}
			}
		}

		// --- Degree update and element absorption ---
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			p1 := cp[i]
			p2 := p1 + elen[i] - 1
			pn := p1
			h, d := 0, 0
			for p := p1; p <= p2; p++ {
				e := ci[p]
				if w[e] == 0 { // absorbed element
					continue
				}
				if dext := w[e] - mark; dext > 0 {
					d += dext
					ci[pn] = e
					pn++
					h += e
				} else { // aggressive absorption: Le ⊆ Lk
					cp[e] = amdFlip(k)
					w[e] = 0
				}
			}
			elen[i] = pn - p1 + 1
			p3 := pn
			p4 := p1 + length[i]
			for p := p2 + 1; p < p4; p++ { // prune the node list of i
				j := ci[p]
				nvj := nv[j]
				if nvj <= 0 {
					continue
				}
				d += nvj
				ci[pn] = j
				pn++
				h += j
			}
			if d == 0 { // mass elimination: i goes with k
				cp[i] = amdFlip(k)
				nvi := -nv[i]
				dk -= nvi
				nvk += nvi
				nel += nvi
				nv[i] = 0
				elen[i] = -1
			} else {
				degree[i] = min(degree[i], d)
				ci[pn] = ci[p3] // move the first node to the end
				ci[p3] = ci[p1] // move the first element to the end of Ei
				ci[p1] = k      // k becomes the first element of Ei
				length[i] = pn - p1 + 1
				h %= n
				next[i] = hhead[h] // hash bucket for supernode detection
				hhead[h] = i
				last[i] = h
			}
		}
		degree[k] = dk
		lemax = max(lemax, dk)
		mark = amdClearW(mark+lemax, lemax, w, n)

		// --- Supernode detection: merge indistinguishable nodes ---
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			if nv[i] >= 0 {
				continue
			}
			h := last[i]
			i = hhead[h]
			hhead[h] = -1
			for ; i != -1 && next[i] != -1; i, mark = next[i], mark+1 {
				ln, eln := length[i], elen[i]
				for p := cp[i] + 1; p <= cp[i]+ln-1; p++ {
					w[ci[p]] = mark
				}
				jlast := i
				for j := next[i]; j != -1; {
					ok := length[j] == ln && elen[j] == eln
					for p := cp[j] + 1; ok && p <= cp[j]+ln-1; p++ {
						if w[ci[p]] != mark {
							ok = false
						}
					}
					if ok { // absorb j into i
						cp[j] = amdFlip(i)
						nv[i] += nv[j]
						nv[j] = 0
						elen[j] = -1
						j = next[j]
						next[jlast] = j
					} else {
						jlast = j
						j = next[j]
					}
				}
			}
		}

		// --- Finalise Lk and return its nodes to the degree lists ---
		p = pk1
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			nvi := -nv[i]
			if nvi <= 0 {
				continue
			}
			nv[i] = nvi
			d := min(degree[i]+dk-nvi, n-nel-nvi)
			if head[d] != -1 {
				last[head[d]] = i
			}
			next[i] = head[d]
			last[i] = -1
			head[d] = i
			mindeg = min(mindeg, d)
			degree[i] = d
			ci[p] = i
			p++
		}
		nv[k] = nvk
		if length[k] = p - pk1; length[k] == 0 { // k is a root
			cp[k] = -1
			w[k] = 0
		}
		if elenk != 0 {
			cnz = p
		}
	}

	// --- Postorder the assembly tree ---
	for i := 0; i < n; i++ {
		cp[i] = amdFlip(cp[i]) // parent of i, or -1 for a root
	}
	for j := 0; j <= n; j++ {
		head[j] = -1
	}
	for j := n; j >= 0; j-- { // absorbed nodes go first in their parent's list
		if nv[j] > 0 {
			continue
		}
		next[j] = head[cp[j]]
		head[cp[j]] = j
	}
	for e := n; e >= 0; e-- { // then the elements
		if nv[e] <= 0 || cp[e] == -1 {
			continue
		}
		next[e] = head[cp[e]]
		head[cp[e]] = e
	}
	post := make([]int, n+1)
	k := 0
	for i := 0; i <= n; i++ {
		if cp[i] == -1 {
			k = amdPostorder(i, k, head, next, post, w)
		}
	}
	return post[:n] // post[n] is the dense root n
}

// amdFlip is CSparse's CS_FLIP: an involution mapping i ≥ 0 to a negative
// tag and back, with amdFlip(-1) = -1.
func amdFlip(i int) int { return -i - 2 }

// amdClearW resets the element marks w when the mark would overflow or on
// first use; afterwards w[0..n-1] < mark.
func amdClearW(mark, lemax int, w []int, n int) int {
	if mark < 2 || mark+lemax < 0 {
		for k := 0; k < n; k++ {
			if w[k] != 0 {
				w[k] = 1
			}
		}
		mark = 2
	}
	return mark
}

// amdPostorder depth-first searches the tree rooted at j (children linked
// through head/next, consumed destructively), writing nodes to post from
// position k in postorder. It returns the next free position.
func amdPostorder(j, k int, head, next, post, stack []int) int {
	top := 0
	stack[0] = j
	for top >= 0 {
		p := stack[top]
		if i := head[p]; i == -1 {
			top--
			post[k] = p
			k++
		} else {
			head[p] = next[i]
			top++
			stack[top] = i
		}
	}
	return k
}

// symPattern returns the pattern of A+Aᵀ without its diagonal in
// compressed form (cp, ci), with ci padded to the elbow room amdOrder's
// quotient graph grows into.
func symPattern(a *CSR) (cp, ci []int) {
	n := a.Rows
	nnz := a.NNZ()
	// The transpose pattern: tp/ti list the rows of each column of A.
	tp := make([]int, n+1)
	for _, j := range a.ColIdx {
		tp[j+1]++
	}
	for j := 0; j < n; j++ {
		tp[j+1] += tp[j]
	}
	ti := make([]int, nnz)
	fill := append([]int(nil), tp[:n]...)
	for i := 0; i < n; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			ti[fill[j]] = i
			fill[j]++
		}
	}
	cp = make([]int, n+1)
	ci = make([]int, 0, 2*nnz+2*nnz/5+2*n)
	mark := fill // reuse: mark[j] == i once j is in row i
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < n; i++ {
		cp[i] = len(ci)
		mark[i] = i // drops the diagonal
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if mark[j] != i {
				mark[j] = i
				ci = append(ci, j)
			}
		}
		for _, j := range ti[tp[i]:tp[i+1]] {
			if mark[j] != i {
				mark[j] = i
				ci = append(ci, j)
			}
		}
	}
	cnz := len(ci)
	cp[n] = cnz
	return cp, ci[:cnz+cnz/5+2*n]
}
