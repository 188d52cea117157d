package subgraph

import (
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/partition"
)

// runDetect executes a detection algorithm on graph g and asserts all
// nodes agree; it returns the decision and the run result.
func runDetect(t *testing.T, g *graph.Graph, f func(nd *clique.Node, row graph.Bitset) bool) (bool, *clique.Result) {
	t.Helper()
	out := make([]bool, g.N)
	res, err := clique.Run(clique.Config{N: g.N, WordsPerPair: 4}, func(nd *clique.Node) {
		out[nd.ID()] = f(nd, g.Row(nd.ID()))
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N; v++ {
		if out[v] != out[0] {
			t.Fatalf("nodes disagree: node %d says %v, node 0 says %v", v, out[v], out[0])
		}
	}
	return out[0], res
}

func TestGatherEdgesWithin(t *testing.T) {
	g := graph.Gnp(16, 0.4, 3)
	k := 2
	s := partition.New(g.N, k)
	locals := make([]*graph.Graph, g.N)
	_, err := clique.Run(clique.Config{N: g.N, WordsPerPair: 4}, func(nd *clique.Node) {
		locals[nd.ID()] = GatherEdges(nd, g.Row(nd.ID()), s, ScopeWithin)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		if s.Label(v) == nil {
			continue
		}
		// Every true edge within S_v must be present; no phantom edges
		// anywhere.
		g.Edges(func(a, b int) {
			if s.InUnion(v, a) && s.InUnion(v, b) && !locals[v].HasEdge(a, b) {
				t.Fatalf("node %d missing in-scope edge %d-%d", v, a, b)
			}
		})
		locals[v].Edges(func(a, b int) {
			if !g.HasEdge(a, b) {
				t.Fatalf("node %d has phantom edge %d-%d", v, a, b)
			}
		})
	}
}

func TestGatherEdgesIncident(t *testing.T) {
	g := graph.Gnp(16, 0.3, 4)
	k := 2
	s := partition.New(g.N, k)
	locals := make([]*graph.Graph, g.N)
	_, err := clique.Run(clique.Config{N: g.N, WordsPerPair: 4}, func(nd *clique.Node) {
		locals[nd.ID()] = GatherEdges(nd, g.Row(nd.ID()), s, ScopeIncident)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		if s.Label(v) == nil {
			continue
		}
		g.Edges(func(a, b int) {
			if (s.InUnion(v, a) || s.InUnion(v, b)) && !locals[v].HasEdge(a, b) {
				t.Fatalf("node %d missing incident edge %d-%d", v, a, b)
			}
		})
	}
}

func TestDetectIndependentSet(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		for _, k := range []int{2, 3} {
			g := graph.Gnp(14, 0.55, seed)
			want := graph.HasIndependentSetOfSize(g, k)
			got, _ := runDetect(t, g, func(nd *clique.Node, row graph.Bitset) bool {
				return DetectIndependentSet(nd, row, k)
			})
			if got != want {
				t.Errorf("seed %d k=%d: detect = %v, oracle = %v", seed, k, got, want)
			}
		}
	}
}

func TestDetectIndependentSetComplete(t *testing.T) {
	// K_n has no 2-IS; K_n minus an edge has exactly one.
	g := graph.Complete(12)
	got, _ := runDetect(t, g, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectIndependentSet(nd, row, 2)
	})
	if got {
		t.Error("found 2-IS in complete graph")
	}
	g.RemoveEdge(3, 9)
	got, _ = runDetect(t, g, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectIndependentSet(nd, row, 2)
	})
	if !got {
		t.Error("missed the unique 2-IS")
	}
}

func TestDetectTriangle(t *testing.T) {
	free := graph.PlantedTriangleFree(15, 0.5, 6)
	got, _ := runDetect(t, free, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectTriangle(nd, row)
	})
	if got {
		t.Error("triangle reported in triangle-free graph")
	}
	withTri := free.Clone()
	withTri.AddEdge(0, 1)
	withTri.AddEdge(1, 2)
	withTri.AddEdge(0, 2)
	got, _ = runDetect(t, withTri, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectTriangle(nd, row)
	})
	if !got {
		t.Error("planted triangle missed")
	}
}

func TestDetectClique(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.Gnp(13, 0.5, seed+40)
		for _, k := range []int{3, 4} {
			want := graph.HasCliqueOfSize(g, k)
			got, _ := runDetect(t, g, func(nd *clique.Node, row graph.Bitset) bool {
				return DetectClique(nd, row, k)
			})
			if got != want {
				t.Errorf("seed %d k=%d: clique detect = %v, oracle = %v", seed, k, got, want)
			}
		}
	}
}

func TestDetectCycle(t *testing.T) {
	c6 := graph.Cycle(6)
	for k := 3; k <= 6; k++ {
		want := graph.HasCycleOfLength(c6, k)
		got, _ := runDetect(t, c6, func(nd *clique.Node, row graph.Bitset) bool {
			return DetectCycle(nd, row, k)
		})
		if got != want {
			t.Errorf("C6, k=%d: detect = %v, oracle = %v", k, got, want)
		}
	}
	// Random graphs.
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.Gnp(11, 0.25, seed+70)
		for _, k := range []int{3, 4} {
			want := graph.HasCycleOfLength(g, k)
			got, _ := runDetect(t, g, func(nd *clique.Node, row graph.Bitset) bool {
				return DetectCycle(nd, row, k)
			})
			if got != want {
				t.Errorf("seed %d k=%d: cycle detect = %v, oracle = %v", seed, k, got, want)
			}
		}
	}
}

func TestDetectCycleTooShort(t *testing.T) {
	g := graph.Cycle(5)
	got, _ := runDetect(t, g, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectCycle(nd, row, 2)
	})
	if got {
		t.Error("2-cycle detected in a simple graph")
	}
}

func TestDetectPattern(t *testing.T) {
	// Pattern: path on 3 vertices (P3). A triangle contains P3; an
	// empty graph does not.
	p3 := graph.Path(3)
	tri := graph.Complete(3)
	big := graph.New(9)
	big.AddEdge(0, 1)
	big.AddEdge(1, 2)
	_ = tri
	got, _ := runDetect(t, big, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectPattern(nd, row, p3)
	})
	if !got {
		t.Error("P3 not found in a graph containing it")
	}
	empty := graph.New(9)
	got, _ = runDetect(t, empty, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectPattern(nd, row, p3)
	})
	if got {
		t.Error("P3 found in empty graph")
	}
	// Star K_{1,3} as a pattern inside a complete graph.
	star := graph.CompleteBipartite(1, 3)
	got, _ = runDetect(t, graph.Complete(10), func(nd *clique.Node, row graph.Bitset) bool {
		return DetectPattern(nd, row, star)
	})
	if !got {
		t.Error("K_{1,3} not found in K10")
	}
}

func TestDetectionRoundsShrinkWithK(t *testing.T) {
	// For fixed n, larger k means larger unions and more rounds:
	// n^{1-2/k} grows with k. Check monotonicity between k=2 and k=3 on
	// a graph big enough to matter.
	g := graph.Gnp(64, 0.5, 8)
	_, res2 := runDetect(t, g, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectIndependentSet(nd, row, 2)
	})
	_, res3 := runDetect(t, g, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectIndependentSet(nd, row, 3)
	})
	if res3.Stats.Rounds <= res2.Stats.Rounds {
		t.Errorf("k=3 rounds (%d) should exceed k=2 rounds (%d) at n=64",
			res3.Stats.Rounds, res2.Stats.Rounds)
	}
}

func TestDetectPath(t *testing.T) {
	// P5 contains paths of every length up to 5 and nothing longer.
	p5 := graph.Path(5)
	for k := 2; k <= 5; k++ {
		got, _ := runDetect(t, p5, func(nd *clique.Node, row graph.Bitset) bool {
			return DetectPath(nd, row, k)
		})
		if !got {
			t.Errorf("P5: %d-path not found", k)
		}
	}
	// A matching has no 3-path.
	m := graph.New(6)
	m.AddEdge(0, 1)
	m.AddEdge(2, 3)
	m.AddEdge(4, 5)
	got, _ := runDetect(t, m, func(nd *clique.Node, row graph.Bitset) bool {
		return DetectPath(nd, row, 3)
	})
	if got {
		t.Error("3-path found in a perfect matching")
	}
	// Cross-check against the oracle on random graphs.
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.Gnp(10, 0.2, seed+80)
		for _, k := range []int{3, 4} {
			want := graph.HasSimplePathOfLength(g, k)
			got, _ := runDetect(t, g, func(nd *clique.Node, row graph.Bitset) bool {
				return DetectPath(nd, row, k)
			})
			if got != want {
				t.Errorf("seed %d k=%d: detect=%v oracle=%v", seed, k, got, want)
			}
		}
	}
}

func TestFindWitnessAgreement(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.Gnp(12, 0.5, seed+200)
		k := 3
		wantIS := graph.HasIndependentSetOfSize(g, k)
		founds := make([]bool, g.N)
		wits := make([][]int, g.N)
		_, err := clique.Run(clique.Config{N: g.N, WordsPerPair: 4}, func(nd *clique.Node) {
			founds[nd.ID()], wits[nd.ID()] = FindIndependentSet(nd, g.Row(nd.ID()), k)
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N; v++ {
			if founds[v] != wantIS {
				t.Fatalf("seed %d node %d: found=%v oracle=%v", seed, v, founds[v], wantIS)
			}
			if wantIS {
				if len(wits[v]) != k || !graph.IsIndependentSet(g, wits[v]) {
					t.Fatalf("seed %d node %d: invalid witness %v", seed, v, wits[v])
				}
				for i := range wits[v] {
					if wits[v][i] != wits[0][i] {
						t.Fatalf("seed %d: witnesses disagree", seed)
					}
				}
			}
		}
	}
}

func TestFindCliqueWitness(t *testing.T) {
	g := graph.PlantedTriangleFree(10, 0.5, 31)
	g.AddEdge(2, 5)
	g.AddEdge(5, 8)
	g.AddEdge(2, 8)
	// One result slot per node: the nodes run concurrently, and every
	// node must return the agreed witness.
	found := make([]bool, g.N)
	wit := make([][]int, g.N)
	_, err := clique.Run(clique.Config{N: g.N, WordsPerPair: 4}, func(nd *clique.Node) {
		found[nd.ID()], wit[nd.ID()] = FindClique(nd, g.Row(nd.ID()), 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range found {
		if !found[v] || !graph.IsClique(g, wit[v]) {
			t.Fatalf("node %d: planted triangle not found: %v %v", v, found[v], wit[v])
		}
	}
}
