//go:build !race

package exp_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/exp"
)

// experimentsByID returns an envelope's experiments keyed by id, each
// as its raw JSON bytes.
func experimentsByID(t *testing.T, data []byte) map[string]json.RawMessage {
	t.Helper()
	var env struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	out := map[string]json.RawMessage{}
	for _, raw := range env.Experiments {
		var head struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			t.Fatal(err)
		}
		out[head.ID] = raw
	}
	return out
}

// TestRegistryMatchesBaselineEnvelope is the full-size golden gate: one
// pass over the whole registry on the lockstep backend must reproduce
// the experiments block of BENCH_baseline.json byte for byte, one
// experiment at a time. Rounds and words are gated by exp.Compare; this
// also pins every table cell, note and fitted exponent, so a change in
// local computation (the oracles nodes run) that moves any published
// number fails here. Regenerating the baseline is a deliberate act that
// names the cells that moved.
//
// It runs the full-size registry (a few seconds), so -short skips it,
// and the race detector's slowdown keeps it out of -race builds.
func TestRegistryMatchesBaselineEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size registry pass; skipped under -short")
	}
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	want := experimentsByID(t, data)

	opts := exp.Options{Backend: "lockstep"}
	results, _, err := exp.Run(exp.IDs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exp.NewReport(opts.Backend, opts, results, exp.Timing{}, false).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := experimentsByID(t, buf.Bytes())
	if len(got) != len(want) {
		t.Errorf("registry has %d experiments, baseline %d", len(got), len(want))
	}
	for _, id := range exp.IDs() {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: not in the baseline", id)
			continue
		}
		if !bytes.Equal(got[id], w) {
			t.Errorf("%s: envelope differs from the baseline\ngot:  %s\nwant: %s", id, got[id], w)
		}
	}
}
