package graph

import (
	"math/bits"

	"repro/internal/bitvec"
)

// This file holds exponential-time centralized oracles. They are the
// ground truth in tests and experiments: the congested clique model
// allows unbounded local computation, and the paper repeatedly relies on
// nodes brute-forcing small subproblems locally (e.g. Theorem 9 step 3,
// Theorem 11's kernel solve), so these same routines double as the
// "local computation" inside distributed algorithms.

// combinations enumerates all k-subsets of 0..n-1 in lexicographic order
// and stops early when f returns true; it reports whether any call did.
func combinations(n, k int, f func(sel []int) bool) bool {
	if k < 0 || k > n {
		return false
	}
	sel := make([]int, k)
	for i := range sel {
		sel[i] = i
	}
	for {
		if f(sel) {
			return true
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && sel[i] == n-k+i {
			i--
		}
		if i < 0 {
			return false
		}
		sel[i]++
		for j := i + 1; j < k; j++ {
			sel[j] = sel[j-1] + 1
		}
	}
}

// IsIndependentSet reports whether set is pairwise non-adjacent in g.
func IsIndependentSet(g *Graph, set []int) bool {
	for i, u := range set {
		for _, v := range set[i+1:] {
			if u == v || g.HasEdge(u, v) {
				return false
			}
		}
	}
	return true
}

// IsClique reports whether set is pairwise adjacent in g.
func IsClique(g *Graph, set []int) bool {
	for i, u := range set {
		for _, v := range set[i+1:] {
			if u == v || !g.HasEdge(u, v) {
				return false
			}
		}
	}
	return true
}

// IsDominatingSet reports whether every vertex of g is in set or adjacent
// to a member of set. It works a word at a time: word i of the closed
// neighbourhood union is the OR of the members' adjacency words plus
// their own bits, and the check stops at the first word with a
// vertex left undominated. It allocates nothing.
func IsDominatingSet(g *Graph, set []int) bool {
	for i := 0; i < bitvec.Words(g.N); i++ {
		var acc uint64
		for _, u := range set {
			acc |= g.adj[u][i]
			if u/64 == i {
				acc |= 1 << (u % 64)
			}
		}
		if acc != wordMask(g.N, i) {
			return false
		}
	}
	return true
}

// wordMask is the set of valid vertex bits in word i of an n-vertex
// row: all ones except in a partial last word.
func wordMask(n, i int) uint64 {
	if rem := n - 64*i; rem < 64 {
		return 1<<rem - 1
	}
	return ^uint64(0)
}

// IsVertexCover reports whether every edge of g has an endpoint in set.
func IsVertexCover(g *Graph, set []int) bool {
	in := make([]bool, g.N)
	for _, u := range set {
		in[u] = true
	}
	ok := true
	g.Edges(func(u, v int) {
		if !in[u] && !in[v] {
			ok = false
		}
	})
	return ok
}

// IsProperColoring reports whether colors is a proper colouring of g with
// values in [0, k).
func IsProperColoring(g *Graph, colors []int, k int) bool {
	for _, c := range colors {
		if c < 0 || c >= k {
			return false
		}
	}
	ok := true
	g.Edges(func(u, v int) {
		if colors[u] == colors[v] {
			ok = false
		}
	})
	return ok
}

// FindIndependentSet returns an independent set of size exactly k, or nil.
func FindIndependentSet(g *Graph, k int) []int {
	var found []int
	combinations(g.N, k, func(sel []int) bool {
		if IsIndependentSet(g, sel) {
			found = append([]int(nil), sel...)
			return true
		}
		return false
	})
	return found
}

// HasIndependentSetOfSize reports whether g has an independent set of
// size k.
func HasIndependentSetOfSize(g *Graph, k int) bool {
	return k == 0 || FindIndependentSet(g, k) != nil
}

// MaxIndependentSetSize returns the independence number of g, via
// branch and bound: pick a vertex of maximum degree in the remaining
// candidate set (the first such vertex) and branch on including, then
// excluding it, pruning when the candidate count cannot beat the
// incumbent. Practical far beyond the plain subset enumeration of
// FindIndependentSet.
//
// The candidate set at recursion depth d lives in row d of one
// preallocated (n+1)-row table — every branch drops at least one
// vertex, so depth never exceeds n — and degrees within it are
// AndOnesCount word kernels over the adjacency rows.
func MaxIndependentSetSize(g *Graph) int {
	n := g.N
	w := bitvec.Words(n)
	table := make([]uint64, (n+1)*w)
	row := func(d int) bitvec.Row { return bitvec.Row(table[d*w : (d+1)*w : (d+1)*w]) }
	for v := 0; v < n; v++ {
		row(0).Set(v)
	}
	best := 0
	var rec func(d, size int)
	rec = func(d, size int) {
		cand := row(d)
		cnt := cand.OnesCount()
		if size+cnt <= best {
			return // cannot improve
		}
		if cnt == 0 {
			if size > best {
				best = size
			}
			return
		}
		// Branch vertex: maximum degree within the candidate set.
		pick, pickDeg := -1, -1
		for i, word := range cand {
			for word != 0 {
				v := i*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if deg := bitvec.AndOnesCount(bitvec.Row(g.adj[v]), cand); deg > pickDeg {
					pick, pickDeg = v, deg
				}
			}
		}
		if pickDeg == 0 {
			// Remaining candidates are pairwise non-adjacent.
			if size+cnt > best {
				best = size + cnt
			}
			return
		}
		next := row(d + 1)
		// Include pick: drop pick and its neighbours.
		next.CopyFrom(cand)
		next.AndNot(bitvec.Row(g.adj[pick]))
		next.Clear(pick)
		rec(d+1, size+1)
		// Exclude pick. The include branch wrote only rows deeper than
		// d, so cand is intact.
		next.CopyFrom(cand)
		next.Clear(pick)
		rec(d+1, size)
	}
	rec(0, 0)
	return best
}

// FindClique returns a clique of size exactly k, or nil.
func FindClique(g *Graph, k int) []int {
	var found []int
	combinations(g.N, k, func(sel []int) bool {
		if IsClique(g, sel) {
			found = append([]int(nil), sel...)
			return true
		}
		return false
	})
	return found
}

// HasCliqueOfSize reports whether g has a k-clique.
func HasCliqueOfSize(g *Graph, k int) bool {
	return k == 0 || FindClique(g, k) != nil
}

// HasTriangle reports whether g contains a triangle.
func HasTriangle(g *Graph) bool { return HasCliqueOfSize(g, 3) }

// FindDominatingSet returns a dominating set of size exactly k, or nil.
func FindDominatingSet(g *Graph, k int) []int {
	var found []int
	combinations(g.N, k, func(sel []int) bool {
		if IsDominatingSet(g, sel) {
			found = append([]int(nil), sel...)
			return true
		}
		return false
	})
	return found
}

// HasDominatingSetOfSize reports whether g has a dominating set of size k.
func HasDominatingSetOfSize(g *Graph, k int) bool {
	return FindDominatingSet(g, k) != nil
}

// FindVertexCover returns a vertex cover of size at most k, or nil. It
// uses the classic size-bounded branching: pick an uncovered edge, branch
// on which endpoint joins the cover. Runs in O(2^k poly) time.
func FindVertexCover(g *Graph, k int) []int {
	type edge struct{ u, v int }
	var edges []edge
	g.Edges(func(u, v int) { edges = append(edges, edge{u, v}) })

	in := make([]bool, g.N)
	var solve func(budget int) []int
	solve = func(budget int) []int {
		// Find the first uncovered edge.
		var pick *edge
		for i := range edges {
			e := &edges[i]
			if !in[e.u] && !in[e.v] {
				pick = e
				break
			}
		}
		if pick == nil {
			cover := []int{} // non-nil: the empty cover is a success
			for v, b := range in {
				if b {
					cover = append(cover, v)
				}
			}
			return cover
		}
		if budget == 0 {
			return nil
		}
		for _, w := range []int{pick.u, pick.v} {
			in[w] = true
			if cover := solve(budget - 1); cover != nil {
				in[w] = false
				return cover
			}
			in[w] = false
		}
		return nil
	}
	return solve(k)
}

// HasVertexCoverOfSize reports whether g has a vertex cover of size <= k.
func HasVertexCoverOfSize(g *Graph, k int) bool {
	return FindVertexCover(g, k) != nil
}

// MinVertexCoverSize returns the size of a minimum vertex cover, via
// Gallai's identity tau(G) = n - alpha(G); the branch-and-bound
// independence number makes this practical on dense graphs where the
// 2^k cover branching of FindVertexCover is not. Tests cross-validate
// the two solvers against each other.
func MinVertexCoverSize(g *Graph) int {
	return g.N - MaxIndependentSetSize(g)
}

// FindColoring returns a proper k-colouring of g, or nil, via
// backtracking.
func FindColoring(g *Graph, k int) []int {
	colors := make([]int, g.N)
	for i := range colors {
		colors[i] = -1
	}
	var solve func(v int) bool
	solve = func(v int) bool {
		if v == g.N {
			return true
		}
		for c := 0; c < k; c++ {
			ok := true
			g.Neighbors(v, func(u int) {
				if colors[u] == c {
					ok = false
				}
			})
			if ok {
				colors[v] = c
				if solve(v + 1) {
					return true
				}
				colors[v] = -1
			}
		}
		return false
	}
	if !solve(0) {
		return nil
	}
	return colors
}

// IsKColorable reports whether g is properly k-colourable.
func IsKColorable(g *Graph, k int) bool { return FindColoring(g, k) != nil }

// HasHamiltonianPath reports whether g has a Hamiltonian path, by
// Held-Karp bitmask dynamic programming. Usable up to n around 20.
func HasHamiltonianPath(g *Graph) bool {
	n := g.N
	if n == 0 {
		return false
	}
	if n == 1 {
		return true
	}
	if n > 24 {
		panic("graph: HasHamiltonianPath oracle limited to n <= 24")
	}
	// reach[mask] = bitset of possible path endpoints over vertex set mask.
	reach := make([]uint32, 1<<n)
	for v := 0; v < n; v++ {
		reach[1<<v] = 1 << v
	}
	full := uint32(1<<n - 1)
	for mask := uint32(1); mask <= full; mask++ {
		ends := reach[mask]
		if ends == 0 {
			continue
		}
		for v := 0; v < n; v++ {
			if ends&(1<<v) == 0 {
				continue
			}
			g.Neighbors(v, func(u int) {
				if mask&(1<<u) == 0 {
					reach[mask|1<<u] |= 1 << u
				}
			})
		}
	}
	return reach[full] != 0
}

// HasCycleOfLength reports whether g contains a (simple) cycle of length
// exactly k, by enumerating k-subsets and checking for a Hamiltonian
// cycle on each induced subgraph via backtracking.
func HasCycleOfLength(g *Graph, k int) bool {
	if k < 3 {
		return false
	}
	return combinations(g.N, k, func(sel []int) bool {
		return inducedHasHamCycle(g, sel)
	})
}

func inducedHasHamCycle(g *Graph, vs []int) bool {
	k := len(vs)
	used := make([]bool, k)
	used[0] = true
	var walk func(pos, depth int) bool
	walk = func(pos, depth int) bool {
		if depth == k {
			return g.HasEdge(vs[pos], vs[0])
		}
		for next := 1; next < k; next++ {
			if !used[next] && g.HasEdge(vs[pos], vs[next]) {
				used[next] = true
				if walk(next, depth+1) {
					return true
				}
				used[next] = false
			}
		}
		return false
	}
	return walk(0, 1)
}

// FloydWarshall returns the full distance matrix of a weighted graph.
// Unreachable pairs get Inf.
func FloydWarshall(g *Weighted) [][]int64 {
	n := g.N
	d := make([][]int64, n)
	for i := range d {
		d[i] = append([]int64(nil), g.W[i]...)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik >= Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if alt := dik + d[k][j]; alt < d[i][j] {
					d[i][j] = alt
				}
			}
		}
	}
	return d
}

// BFSDistances returns single-source hop distances in an unweighted
// graph; unreachable vertices get Inf.
func BFSDistances(g *Graph, src int) []int64 {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.Neighbors(v, func(u int) {
			if dist[u] == Inf {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		})
	}
	return dist
}

// TransitiveClosureOracle returns the reachability matrix of an
// unweighted undirected graph: out[u][v] iff v is reachable from u.
func TransitiveClosureOracle(g *Graph) [][]bool {
	n := g.N
	out := make([][]bool, n)
	for src := 0; src < n; src++ {
		d := BFSDistances(g, src)
		out[src] = make([]bool, n)
		for v := 0; v < n; v++ {
			out[src][v] = d[v] < Inf
		}
	}
	return out
}

// HasSimplePathOfLength reports whether g contains a simple path on
// exactly k vertices, by subset enumeration plus Hamiltonian-path check
// on each induced subgraph. The paper's Section 7.3 cites exp(k)-round
// congested clique algorithms for k-path; this is the centralized
// ground truth for them.
func HasSimplePathOfLength(g *Graph, k int) bool {
	if k < 1 || k > g.N {
		return false
	}
	if k == 1 {
		return g.N > 0
	}
	return combinations(g.N, k, func(sel []int) bool {
		return HasHamiltonianPath(g.InducedSubgraph(sel))
	})
}
