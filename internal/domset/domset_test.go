package domset

import (
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/partition"
)

func runFind(t *testing.T, g *graph.Graph, k int) (Result, *clique.Result) {
	t.Helper()
	out := make([]Result, g.N)
	res, err := clique.Run(clique.Config{N: g.N, WordsPerPair: 4}, func(nd *clique.Node) {
		out[nd.ID()] = Find(nd, g.Row(nd.ID()), k)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N; v++ {
		if out[v].Found != out[0].Found {
			t.Fatalf("nodes disagree on Found")
		}
		if len(out[v].Witness) != len(out[0].Witness) {
			t.Fatalf("nodes disagree on witness length")
		}
		for i := range out[v].Witness {
			if out[v].Witness[i] != out[0].Witness[i] {
				t.Fatalf("nodes disagree on witness")
			}
		}
	}
	return out[0], res
}

func TestFindMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		for _, k := range []int{1, 2, 3} {
			g := graph.Gnp(13, 0.25, seed+10)
			want := graph.HasDominatingSetOfSize(g, k)
			got, _ := runFind(t, g, k)
			if got.Found != want {
				t.Errorf("seed %d k=%d: Found = %v, oracle = %v", seed, k, got.Found, want)
			}
			if got.Found {
				if len(got.Witness) != k {
					t.Errorf("seed %d k=%d: witness size %d", seed, k, len(got.Witness))
				}
				if !graph.IsDominatingSet(g, got.Witness) {
					t.Errorf("seed %d k=%d: witness %v does not dominate", seed, k, got.Witness)
				}
			}
		}
	}
}

func TestPlantedDominatingSet(t *testing.T) {
	g, _ := graph.PlantedDominatingSet(20, 3, 0.1, 7)
	got, _ := runFind(t, g, 3)
	if !got.Found {
		t.Fatal("planted 3-dominating set not found")
	}
	if !graph.IsDominatingSet(g, got.Witness) {
		t.Fatalf("witness %v does not dominate", got.Witness)
	}
}

func TestKnownGraphs(t *testing.T) {
	// Star: centre dominates.
	star := graph.CompleteBipartite(1, 9)
	if got, _ := runFind(t, star, 1); !got.Found || got.Witness[0] != 0 {
		t.Errorf("star: %+v", got)
	}
	// Path P7 needs at least 3 dominators; 2 is impossible.
	p7 := graph.Path(7)
	if got, _ := runFind(t, p7, 2); got.Found {
		t.Error("P7 dominated by 2 vertices")
	}
	if got, _ := runFind(t, p7, 3); !got.Found {
		t.Error("P7 not dominated by 3 vertices")
	}
	// Empty graph on 6 vertices: only all six dominate.
	empty := graph.New(6)
	if got, _ := runFind(t, empty, 5); got.Found {
		t.Error("empty graph dominated by 5 < 6 vertices")
	}
	if got, _ := runFind(t, empty, 6); !got.Found {
		t.Error("k=n must trivially succeed")
	}
}

func TestTrivialLargeK(t *testing.T) {
	g := graph.Gnp(8, 0.3, 1)
	if got, _ := runFind(t, g, 8); !got.Found {
		t.Error("k = n should always succeed")
	}
	if got, _ := runFind(t, g, 20); !got.Found {
		t.Error("k > n should always succeed")
	}
}

func TestIsolatedVertexForcesItself(t *testing.T) {
	g := graph.New(9)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	// Vertex 8 is isolated: any dominating set must contain it.
	got, _ := runFind(t, g, 2)
	if got.Found {
		// {0, 8} leaves 3..7 undominated.
		t.Fatal("2 vertices cannot dominate")
	}
	got, _ = runFind(t, g, 7)
	if !got.Found {
		t.Fatal("7 vertices suffice: {0,3,4,5,6,7,8}")
	}
	hasIsolated := false
	for _, v := range got.Witness {
		if v == 8 {
			hasIsolated = true
		}
	}
	if !hasIsolated {
		t.Errorf("witness %v misses the isolated vertex", got.Witness)
	}
}

func TestRoundsGrowWithK(t *testing.T) {
	// Theorem 9: O(n^{1-1/k}) rounds; k=3 costs more than k=2 at the
	// same n (more incident edges to learn). Edges travel as bit-packed
	// part masks, whose per-word packing efficiency differs between the
	// k=2 and k=3 partition shapes, so the ordering only emerges once n
	// is large enough for the exponent to dominate those constants.
	g := graph.Gnp(128, 0.2, 5)
	_, res2 := runFind(t, g, 2)
	_, res3 := runFind(t, g, 3)
	if res3.Stats.Rounds <= res2.Stats.Rounds {
		t.Errorf("k=3 rounds (%d) should exceed k=2 rounds (%d)",
			res3.Stats.Rounds, res2.Stats.Rounds)
	}
}

// scanDominating is the plain reference for searchDominating: every
// k-subset of candidates in lexicographic order, each checked vertex
// by vertex against a []bool closed-neighbourhood cover.
func scanDominating(g *graph.Graph, candidates []int, k int) []int {
	sel := make([]int, k)
	var rec func(start, d int) bool
	rec = func(start, d int) bool {
		if d == k {
			covered := make([]bool, g.N)
			for _, u := range sel {
				covered[u] = true
				g.Neighbors(u, func(v int) { covered[v] = true })
			}
			return !slices.Contains(covered, false)
		}
		for i := start; i < len(candidates); i++ {
			sel[d] = candidates[i]
			if rec(i+1, d+1) {
				return true
			}
		}
		return false
	}
	if !rec(0, 0) {
		return nil
	}
	return sel
}

// TestSearchDominatingMatchesScan pins the prefix-OR search to the
// plain scan: the same lexicographically first witness (or none) for
// every node's candidate union, across sizes straddling a word
// boundary, planted and random instances, and k = 1..3.
func TestSearchDominatingMatchesScan(t *testing.T) {
	for _, n := range []int{9, 20, 63, 64, 65} {
		for _, k := range []int{1, 2, 3} {
			graphs := []*graph.Graph{graph.Gnp(n, 0.3, uint64(n+k)), graph.Gnp(n, 0.7, uint64(n*k))}
			planted, _ := graph.PlantedDominatingSet(n, k, 0.05, uint64(n))
			graphs = append(graphs, planted)
			s := partition.New(n, k)
			for gi, g := range graphs {
				for v := 0; v < n; v++ {
					if s.Label(v) == nil {
						continue
					}
					cands := s.Union(v)
					got, want := searchDominating(g, cands, k), scanDominating(g, cands, k)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d k=%d graph %d node %d: searchDominating = %v, scan = %v", n, k, gi, v, got, want)
					}
				}
			}
		}
	}
}
