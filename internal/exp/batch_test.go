package exp_test

import (
	"testing"

	"repro/internal/exp"
)

// TestMeasureBatchedProbe sanity-checks the batched-throughput gate's
// instrument: aggregate and serial-reference throughput must both be
// positive, with the batch width recorded so the baseline comparison
// can match on it.
func TestMeasureBatchedProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("timing probe")
	}
	batched, serial := measuredProbe(t, "batched"), measuredProbe(t, "batched-serial")
	for _, p := range []*exp.Probe{batched, serial} {
		if p.Metric != exp.MetricRoundsPerSec || p.N != 8 || p.Batch <= 1 {
			t.Fatalf("probe %+v, want rounds_per_sec at n=8 with batch > 1", p)
		}
		if p.Value <= 0 {
			t.Fatalf("%s probe rounds/sec = %v, want > 0", p.Name, p.Value)
		}
	}
	if batched.Batch != serial.Batch {
		t.Fatalf("batch widths differ: batched %d, serial %d", batched.Batch, serial.Batch)
	}
}
