package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/trace"
)

// registryRefPath is the committed reference, relative to the checkout
// root: the repository's BENCH_baseline.json, whose experiments block is
// the timing-stripped cliquebench/v1 envelope of one full registry pass
// on the lockstep backend. Only that block is compared.
const registryRefPath = "BENCH_baseline.json"

// fig1N is the largest Figure 1 size: the MaxIS and 3-DS instances the
// graph probes solve are the ones fig1 builds at this n (seed = n).
const fig1N = 216

// registryEnvelope renders results exactly as cliquebench -format=json
// does without -timing, minus the build block (which names the commit).
func registryEnvelope(results []*exp.Result) ([]byte, error) {
	rep := exp.NewReport(backend, exp.Options{Backend: backend}, results, exp.Timing{}, false)
	rep.Build = nil
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// splitEnvelope returns an envelope's experiments keyed by id, as the
// raw JSON bytes of each.
func splitEnvelope(data []byte) (map[string]json.RawMessage, error) {
	var env struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	out := map[string]json.RawMessage{}
	for _, raw := range env.Experiments {
		var head struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, err
		}
		out[head.ID] = raw
	}
	return out, nil
}

// checkRegistry compares results with the reference, one experiment at
// a time, and returns the ids that differ.
func checkRegistry(ref map[string]json.RawMessage, results []*exp.Result) ([]string, error) {
	data, err := registryEnvelope(results)
	if err != nil {
		return nil, err
	}
	got, err := splitEnvelope(data)
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, r := range results {
		if !bytes.Equal(got[r.ID], ref[r.ID]) {
			bad = append(bad, r.ID)
		}
	}
	return bad, nil
}

// perturbRegistryRef changes one table cell of fig1's reference: the
// first digit of its first integer cell.
func perturbRegistryRef(ref map[string]json.RawMessage) {
	raw := append(json.RawMessage(nil), ref["fig1"]...)
	i := bytes.Index(raw, []byte(`"int": `))
	if i < 0 {
		return
	}
	d := i + len(`"int": `)
	raw[d] = '0' + (raw[d]-'0'+1)%10
	ref["fig1"] = raw
}

// registrySetup parses the reference and warms up with one quick
// registry pass, so code paths, engine pools and the heap are warm
// before the full pass is timed.
func registrySetup(perturb string) (map[string]json.RawMessage, error) {
	data, err := os.ReadFile(filepath.FromSlash(registryRefPath))
	if err != nil {
		return nil, err
	}
	ref, err := splitEnvelope(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", registryRefPath, err)
	}
	if len(ref) != len(exp.IDs()) {
		return nil, fmt.Errorf("%s holds %d experiments, the registry %d", registryRefPath, len(ref), len(exp.IDs()))
	}
	if perturb == "registry-ref" {
		perturbRegistryRef(ref)
	}
	if _, _, err := exp.Run(exp.IDs(), exp.Options{Backend: backend, Quick: true}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return ref, nil
}

// runRegistry times one sequential pass over the full-size registry
// (what `cliquebench -exp all` runs) and checks every experiment's
// timing-stripped envelope byte for byte against the reference. The
// registry fixes its own instances (seed = n), so the seed is unused.
func runRegistry(opts options) (*outcome, error) {
	o, err := newOutcome()
	if err != nil {
		return nil, err
	}
	ref, probe, err := setupMedian(o, 3, func() (map[string]json.RawMessage, error) { return registrySetup(opts.perturb) },
		func(map[string]json.RawMessage) {})
	if err != nil {
		return nil, err
	}

	ids := exp.IDs()
	perExp := map[string]float64{} // as measured, s
	atExp := map[string]int{}      // the probe before each
	results := make([]*exp.Result, 0, len(ids))
	var simWall time.Duration

	before := readCounters()
	heap := startHeapSampler(0)
	for _, id := range ids {
		// Each experiment starts on the heap the probe before it
		// collected, as it would in its own `cliquebench -exp <id>`
		// process: otherwise fig1's 200 MB of garbage is collected
		// inside whichever experiment follows, and the median
		// experiment's wall swings by 50% from run to run.
		t0 := time.Now()
		res, tim, err := exp.RunOne(id, exp.Options{Backend: backend})
		perExp[id] = time.Since(t0).Seconds()
		if err != nil {
			heap.peakMB()
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		atExp[id] = probe
		probe = o.cal.probe()
		simWall += tim.SimWall
		results = append(results, res)
	}
	o.e2e["peak_heap_mb"] = heap.peakMB()
	after := readCounters()
	var wall float64
	for _, id := range ids {
		wall += perExp[id]
	}

	o.attempted = len(ids)
	bad, err := checkRegistry(ref, results)
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		o.fail(len(bad), "envelope differs from %s for %v", registryRefPath, bad)
	}

	// The operation is one experiment, what `cliquebench -exp <id>` runs.
	expMS, rawMS := registryLatencies(o, ref, perExp, atExp, probe)
	var refWall float64
	for _, id := range ids {
		refWall += perExp[id] / o.cal.around(atExp[id])
	}
	o.e2e["ops_per_s"], o.raw["ops_per_s"] = float64(len(ids))/refWall, float64(len(ids))/wall
	q := tailQuantile(len(expMS))
	o.e2e["p50_ms"], o.raw["p50_ms"] = median(expMS), median(rawMS)
	o.e2e["tail_ms"], o.raw["tail_ms"] = quantile(expMS, q), quantile(rawMS, q)
	o.notef("registry.wall_s %.3f s over %d experiments (tail_ms is p%g)", wall, len(ids), 100*q)

	var walls []string
	for _, id := range ids {
		walls = append(walls, fmt.Sprintf("%s=%.4g", id, perExp[id]))
	}
	o.notef("per-experiment wall (s): %s", strings.Join(walls, " "))

	m := o.layer
	m["registry.wall_s"] = wall
	var rounds, words int64
	for _, r := range results {
		rounds += r.Sim.Rounds
		words += r.Sim.Words
	}
	m["engine.rounds"] = float64(rounds)
	m["clique.words"] = float64(words)
	layerCounters(before, after, m)
	var other float64
	for id, s := range perExp {
		if slices.Contains(heavyExperiments, id) {
			m["exp."+id+"_s"] = s
		} else {
			other += s
		}
	}
	m["exp.other_s"] = other
	m["exp.sim_share"] = simWall.Seconds() / wall

	if !opts.trace {
		return o, nil
	}
	if err := registryTraced(o, ref, wall); err != nil {
		return nil, err
	}
	graphProbes(o)
	return o, nil
}

// heavyExperiments are the experiments that take most of the pass and
// have exp.* metrics of their own; the other 13 take 0.6 s together.
var heavyExperiments = []string{"fig1", "thm9", "fpt", "thm2"}

// lightReps is how many more times each light experiment runs after
// the pass. The median experiment is one of a cluster of ~50 ms
// experiments whose single walls swing by 30% from run to run; the
// median of repeats does not.
const lightReps = 8

// registryLatencies returns each experiment's latency in ms, in
// reference seconds and as measured: the median of its pass wall and
// lightReps repeats for light experiments, the pass wall for the heavy
// ones. Each repeat is followed by a probe, the first preceded by the
// given one, and checked like the pass.
func registryLatencies(o *outcome, ref map[string]json.RawMessage, perExp map[string]float64, atExp map[string]int, probe int) ([]float64, []float64) {
	raw, at := map[string][]float64{}, map[string][]int{}
	for _, id := range exp.IDs() {
		raw[id] = []float64{1e3 * perExp[id]}
		at[id] = []int{atExp[id]}
	}
	for r := 0; r < lightReps; r++ {
		for _, id := range exp.IDs() {
			if slices.Contains(heavyExperiments, id) {
				continue
			}
			t0 := time.Now()
			res, _, err := exp.RunOne(id, exp.Options{Backend: backend})
			raw[id] = append(raw[id], msOf(time.Since(t0)))
			at[id] = append(at[id], probe)
			probe = o.cal.probe()
			o.attempted++
			if err != nil {
				o.fail(1, "repeat of %s: %v", id, err)
				continue
			}
			if bad, err := checkRegistry(ref, []*exp.Result{res}); err != nil || len(bad) > 0 {
				o.fail(1, "repeat of %s: envelope differs from %s (%v)", id, registryRefPath, err)
			}
		}
	}
	var lat, rawLat []float64
	for _, id := range exp.IDs() {
		var walls []float64
		for i, ms := range raw[id] {
			walls = append(walls, ms/o.cal.around(at[id][i]))
		}
		lat = append(lat, median(walls))
		rawLat = append(rawLat, median(raw[id]))
	}
	return lat, rawLat
}

// registryTraced runs the registry once more with every run traced and
// attributes its time to the engine and comm layers. The traced pass
// must reproduce the same envelopes once the trace blocks are removed.
func registryTraced(o *outcome, ref map[string]json.RawMessage, untraced float64) error {
	split := newTraceSplit()
	sink := func(_ string, traces []*trace.RunTrace) {
		for _, t := range traces {
			split.add(t)
		}
	}
	var results []*exp.Result
	var wall time.Duration
	for _, id := range exp.IDs() {
		runtime.GC() // untimed, as the untraced pass's probes
		start := time.Now()
		res, _, err := exp.RunOne(id, exp.Options{Backend: backend, TraceSink: sink})
		wall += time.Since(start)
		if err != nil {
			return fmt.Errorf("traced %s: %w", id, err)
		}
		res.Trace = nil
		results = append(results, res)
	}
	o.attempted += len(results)
	bad, err := checkRegistry(ref, results)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		o.fail(len(bad), "traced pass: envelope differs from %s for %v", registryRefPath, bad)
	}
	split.metrics(o.layer)
	o.layer["trace.overhead_frac"] = wall.Seconds()/untraced - 1
	path, err := split.write("registry", 0)
	if err != nil {
		return err
	}
	o.notef("traced pass: %.3f s, %d runs, spans in %s", wall.Seconds(), len(split.runs), path)
	return nil
}

// graphProbes times the oracles nodes run as local computation, called
// directly on fig1's own instances at n = 216: one MaxIS solve (every
// node of the MaxIS workload re-solves it) and one 3-subset
// dominating-set check (the 3-DS workload's inner loop).
func graphProbes(o *outcome) {
	g := graph.Gnp(fig1N, 0.92, fig1N)
	var solves []float64
	size := -1
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		s := graph.MaxIndependentSetSize(g)
		solves = append(solves, msOf(time.Since(t0)))
		if size >= 0 && s != size {
			o.fail(1, "graph: MaxIndependentSetSize answered %d, then %d", size, s)
		}
		size = s
	}
	o.layer["graph.maxis_solve_ms"] = median(solves)

	ds, planted := graph.PlantedDominatingSet(fig1N, 3, 0.1, fig1N)
	if !graph.IsDominatingSet(ds, planted) {
		o.fail(1, "graph: the planted dominating set %v is not dominating", planted)
	}
	// Walk the 3-subsets in lexicographic order, as the 3-DS search does.
	const perBatch = 2000
	var batches []float64
	a, b, c := 0, 1, 2
	for k := 0; k < 15; k++ {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			graph.IsDominatingSet(ds, []int{a, b, c})
			if c++; c == fig1N {
				if b++; b == fig1N-1 {
					a++
					b = a + 1
				}
				c = b + 1
			}
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/1e3/perBatch)
	}
	o.layer["graph.domset_check_us"] = median(batches)
}

// tailQuantile is the highest of p99 and p90 with at least ten samples
// beyond it; with fewer than 100 samples it is the maximum.
func tailQuantile(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.9
	}
	return 1
}
