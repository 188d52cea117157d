package exp

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBaselineRoundTrip parses the committed baseline into Report, so a
// schema change that the baseline was not migrated to fails here: every
// probe with a gate table row must be present, and the baseline must
// compare clean against itself.
func TestBaselineRoundTrip(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, p := range base.Probes {
		have[p.Name] = true
	}
	for name := range gates {
		if name == "throughput" {
			if base.Throughput == nil {
				t.Error("baseline has no throughput block")
			}
			continue
		}
		if !have[name] {
			t.Errorf("baseline has no %q probe", name)
		}
	}
	if findings := Compare(&base, &base); len(findings) != 0 {
		t.Errorf("baseline compared against itself: %v", findings)
	}
}
