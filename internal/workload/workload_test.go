package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/clique"
	"repro/internal/workload"
)

// TestCatalogueRuns runs every catalogue entry at small sizes and pins
// the two properties callers rely on: the model cost does not depend on
// the backend, and Make is deterministic in (n, seed).
func TestCatalogueRuns(t *testing.T) {
	const seed = 7
	for _, a := range workload.All() {
		for _, n := range []int{8, 16} {
			t.Run(fmt.Sprintf("%s/n=%d", a.Name, n), func(t *testing.T) {
				run := func(backend string) clique.Stats {
					t.Helper()
					res, err := clique.Run(clique.Config{N: n, WordsPerPair: a.WPP, Backend: backend}, a.Make(n, seed))
					if err != nil {
						t.Fatalf("%s backend: %v", backend, err)
					}
					return res.Stats
				}
				lockstep := run("lockstep")
				if lockstep.Rounds == 0 {
					t.Errorf("ran 0 rounds")
				}
				if goroutine := run("goroutine"); goroutine != lockstep {
					t.Errorf("backends disagree: lockstep %+v, goroutine %+v", lockstep, goroutine)
				}
				if again := run("lockstep"); again != lockstep {
					t.Errorf("Make(%d, %d) not deterministic: %+v then %+v", n, seed, lockstep, again)
				}
			})
		}
	}
}
