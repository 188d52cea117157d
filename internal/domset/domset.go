package domset

import (
	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/subgraph"
)

// Result is the outcome of the search, identical at every node.
type Result struct {
	// Found reports whether a dominating set of size at most k exists.
	Found bool
	// Witness is a dominating set of size <= k if Found; the witness
	// found by the lowest-id successful node is broadcast so that all
	// nodes agree on it. Nil if not Found.
	Witness []int
}

// Find looks for a dominating set of size k. row is this node's
// adjacency bitset. Rounds: O(n^{1-1/k}) for the gather plus
// 1 + ceil(k / wordsPerPair) bookkeeping rounds to agree on the
// witness.
func Find(nd clique.Endpoint, row graph.Bitset, k int) Result {
	n := nd.N()
	if k < 1 {
		nd.Fail("domset: k = %d", k)
	}
	if k >= n {
		// Everything dominates; trivial witness.
		w := make([]int, 0, k)
		for v := 0; v < n && v < k; v++ {
			w = append(w, v)
		}
		return Result{Found: true, Witness: w}
	}
	s := partition.New(n, k)
	local := subgraph.GatherEdges(nd, row, s, subgraph.ScopeIncident)

	// Local search: any k-subset of S_v that dominates V. The paper's
	// step (3): knowing all edges incident to S_v suffices to verify
	// domination of the full vertex set.
	var witness []int
	if lbl := s.Label(nd.ID()); lbl != nil {
		union := s.Union(nd.ID())
		witness = searchDominating(local, union, k)
	}
	return agreeOnWitness(nd, witness, k)
}

// searchDominating returns the lexicographically first k-subset of
// candidates (by candidate index) dominating all of g, or nil. The
// candidates' closed-neighbourhood rows are built once; depth d keeps
// the OR of the first d picks, so each leaf costs one word-parallel OR
// and a full-row test. A prefix that already dominates ends the search:
// its first completion in lexicographic order is the next k-d
// candidates.
func searchDominating(g *graph.Graph, candidates []int, k int) []int {
	n, w := g.N, bitvec.Words(g.N)
	closed := make([]uint64, len(candidates)*w)
	for i, v := range candidates {
		r := bitvec.Row(closed[i*w : (i+1)*w])
		r.CopyFrom(bitvec.Row(g.Row(v)))
		r.Set(v)
	}
	prefix := make([]uint64, (k+1)*w)
	row := func(buf []uint64, i int) bitvec.Row { return bitvec.Row(buf[i*w : (i+1)*w : (i+1)*w]) }
	full := func(r bitvec.Row) bool { return r.OnesCount() == n }
	pick := make([]int, 0, k)
	var rec func(start int) bool
	rec = func(start int) bool {
		d := len(pick)
		if full(row(prefix, d)) {
			if start+k-d > len(candidates) {
				return false
			}
			for i := start; len(pick) < k; i++ {
				pick = append(pick, i)
			}
			return true
		}
		if d == k {
			return false
		}
		for i := start; i+k-d <= len(candidates); i++ {
			next := row(prefix, d+1)
			next.CopyFrom(row(prefix, d))
			next.Or(row(closed, i))
			pick = append(pick, i)
			if rec(i + 1) {
				return true
			}
			pick = pick[:d]
		}
		return false
	}
	if !rec(0) {
		return nil
	}
	witness := make([]int, k)
	for j, i := range pick {
		witness[j] = candidates[i]
	}
	return witness
}

// agreeOnWitness publishes the lowest-id node's witness (if any) so that
// all nodes produce identical output: one presence-coded vote round to
// announce success (only successful nodes spend budget), then a
// budget-chunked BroadcastFrom in which the elected node ships its k
// witness vertices.
func agreeOnWitness(nd clique.Endpoint, witness []int, k int) Result {
	n := nd.N()
	me := nd.ID()
	flags := comm.Flags(nd, witness != nil)
	leader := -1
	for v := 0; v < n; v++ {
		if flags[v] {
			leader = v
			break
		}
	}
	if leader < 0 {
		return Result{}
	}
	var words []uint64
	if me == leader {
		words = make([]uint64, k)
		for i, v := range witness {
			words[i] = uint64(v)
		}
	}
	got := comm.BroadcastFrom(nd, leader, words, k)
	out := make([]int, k)
	for i, w := range got {
		out[i] = int(w)
	}
	return Result{Found: true, Witness: out}
}

// Decide is the decision version: does a dominating set of size at most
// k exist?
func Decide(nd clique.Endpoint, row graph.Bitset, k int) bool {
	return Find(nd, row, k).Found
}
