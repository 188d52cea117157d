package exp_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/stats"
)

// TestRegistryComplete pins the registered experiment set: the E1-E13
// map of EXPERIMENTS.md plus the extension and ablation entries, in
// report order.
func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "thm2", "thm4", "thm8", "lemma1",
		"thm3", "thm6", "thm7", "thm9", "thm11", "fpt", "mst",
		"mstsketch", "mstsparse", "sub", "ablation"}
	if got := exp.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for _, id := range want {
		e, ok := exp.Get(id)
		if !ok {
			t.Fatalf("Get(%q) missing", id)
		}
		if e.Artefact == "" || e.Title == "" {
			t.Errorf("%s: empty artefact or title: %+v", id, e)
		}
		if !strings.Contains(exp.Help(), id) {
			t.Errorf("Help() does not mention %q", id)
		}
	}
}

func TestResolve(t *testing.T) {
	if ids, err := exp.Resolve("all"); err != nil || len(ids) != len(exp.IDs()) {
		t.Fatalf("Resolve(all) = %v, %v", ids, err)
	}
	ids, err := exp.Resolve("thm9, fig1,thm9")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"thm9", "fig1"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("Resolve dedup/order = %v, want %v", ids, want)
	}
	if _, err := exp.Resolve("nope"); err == nil || !strings.Contains(err.Error(), "fig1") {
		t.Fatalf("Resolve(nope) err = %v, want error listing valid ids", err)
	}
}

// TestAllExperimentsQuick runs every registered experiment once at
// quick sizes and sanity-checks the structured Result.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range exp.All() {
		t.Run(e.ID, func(t *testing.T) {
			res, tim, err := exp.RunOne(e.ID, exp.Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != e.ID || res.Artefact != e.Artefact || res.Title != e.Title {
				t.Errorf("result header %q/%q/%q does not match registration", res.ID, res.Artefact, res.Title)
			}
			if len(res.Tables)+len(res.Notes) == 0 {
				t.Error("experiment produced neither tables nor notes")
			}
			for _, tab := range res.Tables {
				for i, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %q row %d: %d cells for %d columns", tab.Name, i, len(row), len(tab.Columns))
					}
				}
			}
			if res.Sim.Runs > 0 && res.Sim.Rounds == 0 {
				t.Errorf("simulated %d runs but counted 0 rounds", res.Sim.Runs)
			}
			if res.Sim.Runs > 0 && tim.SimWall <= 0 {
				t.Errorf("simulated %d runs but measured no wall time", res.Sim.Runs)
			}
			if tim.Rounds != res.Sim.Rounds {
				t.Errorf("timing rounds %d != sim rounds %d", tim.Rounds, res.Sim.Rounds)
			}
		})
	}
}

// TestBackendInvariance pins that the structured results — not just
// the old stats — are identical across execution backends.
func TestBackendInvariance(t *testing.T) {
	ids := []string{"fig2", "thm7", "ablation"}
	var ref []*exp.Result
	for i, backend := range clique.Backends() {
		results, _, err := exp.Run(ids, exp.Options{Backend: backend, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if i == 0 {
			ref = results
			continue
		}
		if !reflect.DeepEqual(results, ref) {
			t.Errorf("%s results diverge from %s", backend, clique.Backends()[0])
		}
	}
}

// TestParallelMatchesSequential is the acceptance criterion of the
// parallel runner: identical bytes whatever the worker count.
func TestParallelMatchesSequential(t *testing.T) {
	ids := exp.IDs()
	seqRes, seqTim, err := exp.Run(ids, exp.Options{Quick: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parRes, parTim, err := exp.Run(ids, exp.Options{Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Error("parallel results differ structurally from sequential results")
	}
	seq := mustJSON(t, exp.NewReport("lockstep", exp.Options{Quick: true}, seqRes, seqTim, false))
	par := mustJSON(t, exp.NewReport("lockstep", exp.Options{Quick: true}, parRes, parTim, false))
	if !bytes.Equal(seq, par) {
		t.Error("parallel JSON differs from sequential JSON")
	}
	if seqTim.Rounds != parTim.Rounds {
		t.Errorf("sequential rounds %d != parallel rounds %d", seqTim.Rounds, parTim.Rounds)
	}
}

// TestJSONRoundTrip demands a stable schema: marshal, unmarshal,
// marshal again, byte-identical — so archived BENCH_*.json files can
// be re-read and re-compared by any future version of the tools.
func TestJSONRoundTrip(t *testing.T) {
	results, tim, err := exp.Run(exp.IDs(), exp.Options{Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	report := exp.NewReport("lockstep", exp.Options{Quick: true, Parallel: 4}, results, tim, true)
	first := mustJSON(t, report)
	var decoded exp.Report
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second := mustJSON(t, &decoded)
	if !bytes.Equal(first, second) {
		t.Errorf("JSON round-trip unstable:\nfirst:  %s\nsecond: %s", first, second)
	}
	if decoded.Schema != exp.SchemaVersion {
		t.Errorf("schema = %q, want %q", decoded.Schema, exp.SchemaVersion)
	}
	if decoded.Throughput == nil || decoded.Throughput.SimRounds != tim.Rounds {
		t.Errorf("throughput block lost in round trip: %+v", decoded.Throughput)
	}
}

func TestCompare(t *testing.T) {
	mk := func(rps float64, workers int, rounds, words int64) *exp.Report {
		return &exp.Report{
			Schema:  exp.SchemaVersion,
			Backend: "lockstep",
			Experiments: []*exp.Result{
				{ID: "fig1", Sim: exp.SimCost{Runs: 1, Rounds: rounds, Words: words}},
			},
			Throughput: &exp.Throughput{SimRounds: rounds, WallNS: 1e9, RoundsPerSec: rps, Workers: workers},
		}
	}
	if warns := exp.Compare(mk(100, 1, 50, 900), mk(90, 1, 50, 900)); len(warns) != 0 {
		t.Errorf("10%% slowdown should pass a 25%% threshold: %v", warns)
	}
	warns := exp.Compare(mk(100, 1, 50, 900), mk(50, 1, 50, 900))
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "throughput") || warns[0].Fatal {
		t.Errorf("50%% slowdown should warn, not fail: %v", warns)
	}
	warns = exp.Compare(mk(100, 1, 50, 900), mk(100, 1, 60, 900))
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "model cost changed (simulated rounds)") || !warns[0].Fatal {
		t.Errorf("round count change should fail: %v", warns)
	}
	warns = exp.Compare(mk(100, 1, 50, 900), mk(100, 1, 50, 901))
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "model cost changed (words)") || !warns[0].Fatal {
		t.Errorf("word count change should fail: %v", warns)
	}
	warns = exp.Compare(mk(100, 1, 50, 900), mk(100, 4, 50, 900))
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "worker-count mismatch") || warns[0].Fatal {
		t.Errorf("worker mismatch should warn instead of comparing: %v", warns)
	}
	quick := mk(100, 1, 50, 900)
	quick.Quick = true
	if warns := exp.Compare(quick, mk(100, 1, 50, 900)); len(warns) != 1 {
		t.Errorf("quick-mode mismatch should warn: %v", warns)
	}
	dropped := mk(100, 1, 50, 900)
	dropped.Experiments = nil
	warns = exp.Compare(mk(100, 1, 50, 900), dropped)
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "missing from the current report") {
		t.Errorf("dropped experiment should warn: %v", warns)
	}
	zeroBase := mk(100, 1, 0, 0)
	warns = exp.Compare(zeroBase, mk(100, 1, 12, 0))
	if len(warns) != 1 || strings.Contains(warns[0].String(), "Inf") {
		t.Errorf("zero-baseline cost change must not print Inf: %v", warns)
	}
}

// TestWriteText checks the renderer: aligned columns, the banner, the
// throughput summary line.
func TestWriteText(t *testing.T) {
	report := &exp.Report{
		Schema: exp.SchemaVersion, Backend: "lockstep",
		Experiments: []*exp.Result{{
			ID: "demo", Artefact: "E0 / Demo", Title: "a demo",
			Tables: []exp.Table{{
				Columns: []string{"name", "n", "fit"},
				Rows: [][]exp.Cell{
					{exp.Str("tri"), exp.Int(125), exp.Float(0.3333, "%.3f")},
					{exp.Str("longer-name"), exp.Int(7), exp.Float(1, "%.3f")},
				},
			}},
			Notes: []string{"a closing note"},
		}},
		Throughput: &exp.Throughput{SimRounds: 10, WallNS: 1e9, RoundsPerSec: 10},
	}
	var sb strings.Builder
	report.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"backend: lockstep",
		"===== E0 / Demo: a demo =====",
		"longer-name   7 1.000",
		"tri         125 0.333",
		"a closing note",
		"simulator: 10 rounds in 1s on the lockstep backend (10 rounds/sec)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestCells pins the typed-cell constructors, including the non-finite
// float degradation that keeps Results JSON-marshalable.
func TestCells(t *testing.T) {
	if c := exp.Int(42); c.Kind != exp.KindInt || c.Text != "42" || c.Int != 42 {
		t.Errorf("Int cell = %+v", c)
	}
	if c := exp.Float(0.5, "%.2f"); c.Kind != exp.KindFloat || c.Text != "0.50" {
		t.Errorf("Float cell = %+v", c)
	}
	bad := exp.Float(math.NaN(), "%.3f")
	if bad.Kind != exp.KindString {
		t.Errorf("NaN float should degrade to a string cell: %+v", bad)
	}
	if _, err := json.Marshal(bad); err != nil {
		t.Errorf("degraded NaN cell must marshal: %v", err)
	}
	if c := exp.Bool(true); c.Kind != exp.KindBool || c.Text != "true" {
		t.Errorf("Bool cell = %+v", c)
	}
	if c := exp.Strf("x=%d", 3); c.Kind != exp.KindString || c.Text != "x=3" {
		t.Errorf("Strf cell = %+v", c)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// gateCase is one row of the gate table's test table: Compare(base, cur)
// must return exactly the findings in want. test names the Test function
// that runs the row.
type gateCase struct {
	test, name string
	base, cur  *exp.Report
	want       []gateFinding
}

type gateFinding struct {
	kind     string
	fatal    bool
	contains string
}

// gateCases pins the gate table row by row: the fixed-fraction warn and
// fail thresholds of distribution-free baselines, the CI-scaled
// thresholds (two half-widths warn, four fail) and the 2% floor of
// baselines with a distribution, the allocation probes' absolute slack,
// and the findings that are never fatal (missing probe, shape mismatch,
// registry throughput).
func gateCases() []gateCase {
	probe := func(name, metric string, n, batch int, value float64, dist *stats.Summary) *exp.Probe {
		return &exp.Probe{Name: name, Metric: metric, Backend: "lockstep", N: n,
			WordsPerPair: 1, Rounds: 256, Runs: 5, Batch: batch, Value: value, Dist: dist}
	}
	allocs := func(name string, v float64, dist *stats.Summary) *exp.Probe {
		return probe(name, exp.MetricAllocs, 64, 0, v, dist)
	}
	traceOff := func(v float64) *exp.Probe { return probe("trace-off", exp.MetricRoundsPerSec, 64, 0, v, nil) }
	batched := func(v float64, dist *stats.Summary) *exp.Probe {
		return probe("batched", exp.MetricRoundsPerSec, 8, 8, v, dist)
	}
	report := func(ps ...*exp.Probe) *exp.Report {
		return &exp.Report{Schema: exp.SchemaVersion, Backend: "lockstep", Probes: ps}
	}
	throughput := func(rps float64, dist *stats.Summary) *exp.Report {
		return &exp.Report{Schema: exp.SchemaVersion, Backend: "lockstep",
			Throughput: &exp.Throughput{SimRounds: 50, WallNS: 1e9, RoundsPerSec: rps, Workers: 1, Dist: dist}}
	}
	reshape := func(p *exp.Probe, f func(*exp.Probe)) *exp.Probe { f(p); return p }

	// Allocation baseline with a spread: {990, 1000, 1010} has mean 1000
	// and half-width t(0.975, 2)·10/√3 ≈ 24.84.
	ad := stats.Summarize([]float64{990, 1000, 1010}, 0)
	ahw := ad.HalfWidth()
	// Rate baselines with a spread: {98, 100, 102} has mean 100 and
	// half-width ≈ 4.968; the batched one is the same scaled by 1000.
	rd := stats.Summarize([]float64{98, 100, 102}, 0)
	rhw := rd.HalfWidth()
	bd := stats.Summarize([]float64{98000, 100000, 102000}, 0)
	bhw := bd.HalfWidth()
	flat := stats.Summarize([]float64{100, 100, 100}, 0)

	metric := func(fatal bool, contains string) []gateFinding {
		return []gateFinding{{exp.RegressMetric, fatal, contains}}
	}
	const (
		benchT    = "TestCompareBenchProbe"
		packedT   = "TestComparePackedProbe"
		allocT    = "TestAllocRegressionsGate"
		varianceT = "TestCompareVarianceAware"
		traceT    = "TestCompareTraceOffProbe"
		batchedT  = "TestCompareBatchedProbe"
	)
	return []gateCase{
		// exchange and packed-mm: warn 10%, fail 25%, plus 16 allocs.
		{benchT, "exchange 5% growth passes the 10% gate",
			report(allocs("exchange", 1000, nil)), report(allocs("exchange", 1050, nil)), nil},
		{allocT, "exchange 20% growth warns", report(allocs("exchange", 1000, nil)), report(allocs("exchange", 1200, nil)),
			metric(false, "exchange")},
		{allocT, "exchange 30% growth fails the 25% gate", report(allocs("exchange", 1000, nil)), report(allocs("exchange", 1300, nil)),
			metric(true, "exchange")},
		{benchT, "exchange doubled allocations fail", report(allocs("exchange", 1000, nil)), report(allocs("exchange", 2000, nil)),
			metric(true, "allocs_per_op on the exchange probe")},
		{packedT, "packed-mm 5% growth passes the 10% gate",
			report(allocs("packed-mm", 1000, nil)), report(allocs("packed-mm", 1050, nil)), nil},
		{packedT, "packed-mm doubled allocations fail", report(allocs("packed-mm", 1000, nil)), report(allocs("packed-mm", 2000, nil)),
			metric(true, "packed-mm")},
		{allocT, "alloc rise inside 2 half-widths passes",
			report(allocs("exchange", ad.Mean, &ad)), report(allocs("exchange", 1000+1.5*ahw, nil)), nil},
		{allocT, "alloc rise between 2 and 4 half-widths (plus slack) warns",
			report(allocs("exchange", ad.Mean, &ad)), report(allocs("exchange", 1000+3.5*ahw+16, nil)),
			metric(false, "exchange")},
		{allocT, "alloc rise beyond 4 half-widths (plus slack) fails",
			report(allocs("exchange", ad.Mean, &ad)), report(allocs("exchange", 1000+4.5*ahw+16, nil)),
			metric(true, "exchange")},

		// trace-off: warn and fail at 1%.
		{traceT, "trace-off 0.5% drop passes", report(traceOff(100000)), report(traceOff(99500)), nil},
		{traceT, "trace-off 2% drop fails", report(traceOff(100000)), report(traceOff(98000)),
			metric(true, "rounds_per_sec on the trace-off probe")},

		// batched: warn and fail at 25%.
		{batchedT, "batched 10% drop passes", report(batched(100000, nil)), report(batched(90000, nil)), nil},
		{batchedT, "batched 30% drop fails", report(batched(100000, nil)), report(batched(70000, nil)),
			metric(true, "batched")},
		{batchedT, "batched drop between 2 and 4 half-widths warns",
			report(batched(bd.Mean, &bd)), report(batched(100000-3.5*bhw, nil)), metric(false, "batched")},
		{batchedT, "batched drop beyond 4 half-widths fails",
			report(batched(bd.Mean, &bd)), report(batched(100000-5*bhw, nil)), metric(true, "batched")},
		{batchedT, "batched-serial has no gate row",
			report(probe("batched-serial", exp.MetricRoundsPerSec, 8, 8, 100000, nil)),
			report(probe("batched-serial", exp.MetricRoundsPerSec, 8, 8, 10000, nil)), nil},

		// Registry throughput: warn at 25% or two half-widths, never fatal.
		{varianceT, "throughput 10% drop passes", throughput(100, nil), throughput(90, nil), nil},
		{varianceT, "throughput 50% drop warns", throughput(100, nil), throughput(50, nil),
			metric(false, "simulator throughput")},
		{varianceT, "throughput drop inside 2 half-widths passes", throughput(rd.Mean, &rd), throughput(100-1.5*rhw, nil), nil},
		{varianceT, "throughput drop beyond 2 half-widths warns inside the 25% fraction",
			throughput(rd.Mean, &rd), throughput(100-3*rhw, nil), metric(false, "simulator throughput")},
		{varianceT, "throughput drop beyond 4 half-widths still only warns",
			throughput(rd.Mean, &rd), throughput(100-5*rhw, nil), metric(false, "simulator throughput")},
		{varianceT, "zero-variance baseline: 1% drop stays under the 2% floor", throughput(100, &flat), throughput(99, nil), nil},
		{varianceT, "zero-variance baseline: 10% drop warns", throughput(100, &flat), throughput(90, nil),
			metric(false, "simulator throughput")},

		// Findings that are never fatal.
		{benchT, "exchange shape mismatch is reported, not compared",
			report(reshape(allocs("exchange", 1000, nil), func(p *exp.Probe) { p.N = 128 })),
			report(allocs("exchange", 5000, nil)),
			[]gateFinding{{exp.RegressMismatch, false, "shape mismatch"}}},
		{traceT, "trace-off shape mismatch is reported, not compared",
			report(traceOff(100000)), report(reshape(traceOff(100000), func(p *exp.Probe) { p.N = 32 })),
			[]gateFinding{{exp.RegressMismatch, false, "shape mismatch"}}},
		{batchedT, "batch-width change is a mismatch, not a regression",
			report(batched(100000, nil)), report(reshape(batched(100000, nil), func(p *exp.Probe) { p.Batch = 16 })),
			[]gateFinding{{exp.RegressMismatch, false, "shape mismatch"}}},
		{benchT, "probe missing from the current report",
			report(allocs("exchange", 1000, nil)), report(),
			[]gateFinding{{exp.RegressMissing, false, "missing from the current report"}}},
		{benchT, "probe missing from the baseline",
			report(), report(allocs("exchange", 1000, nil)),
			[]gateFinding{{exp.RegressMissing, false, "missing from the baseline"}}},
		{batchedT, "batched probe missing from the current report",
			report(batched(100000, nil)), report(),
			[]gateFinding{{exp.RegressMissing, false, "missing from the current report"}}},
	}
}

// runGateCases runs the rows of gateCases that belong to the calling
// test, and fails if that test owns no row.
func runGateCases(t *testing.T) {
	t.Helper()
	ran := 0
	for _, tc := range gateCases() {
		if tc.test != t.Name() {
			continue
		}
		ran++
		t.Run(tc.name, func(t *testing.T) {
			got := exp.Compare(tc.base, tc.cur)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d findings, want %d: %v", len(got), len(tc.want), got)
			}
			for i, w := range tc.want {
				g := got[i]
				if g.Kind != w.kind || g.Fatal != w.fatal || !strings.Contains(g.String(), w.contains) {
					t.Errorf("finding %d = %+v (%s), want kind %q fatal %v containing %q",
						i, g, g, w.kind, w.fatal, w.contains)
				}
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no gate case belongs to %s", t.Name())
	}
}

// The exchange probe: fixed-fraction gate, shape mismatch, and a probe
// missing from either side.
func TestCompareBenchProbe(t *testing.T) { runGateCases(t) }

// The packed-mm probe shares the exchange probe's allocation gate.
func TestComparePackedProbe(t *testing.T) { runGateCases(t) }

// The allocation gate's fatal threshold: the fixed fraction without a
// baseline spread, CI half-widths plus the absolute slack with one.
func TestAllocRegressionsGate(t *testing.T) { runGateCases(t) }

// The registry throughput gate: CI half-widths with a baseline spread,
// the 2% floor of a zero-variance one, and never fatal.
func TestCompareVarianceAware(t *testing.T) { runGateCases(t) }

// The trace-off probe's 1% gate and its shape mismatch.
func TestCompareTraceOffProbe(t *testing.T) { runGateCases(t) }

// The batched probe's 25% and CI gates, its ungated serial reference,
// batch-width mismatch and a missing probe.
func TestCompareBatchedProbe(t *testing.T) { runGateCases(t) }

// measured runs exp.MeasureProbes once for all the probe tests below.
var measured = sync.OnceValues(func() ([]*exp.Probe, error) { return exp.MeasureProbes("lockstep") })

// measuredProbe returns one probe of the shared measurement.
func measuredProbe(t *testing.T, name string) *exp.Probe {
	t.Helper()
	probes, err := measured()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if p.Name == name {
			if p.Backend != "lockstep" || p.Rounds != 256 || p.Runs < 2 || p.Dist == nil {
				t.Errorf("unexpected %s probe shape: %+v", name, p)
			}
			return p
		}
	}
	t.Fatalf("MeasureProbes returned no %q probe", name)
	return nil
}

func TestMeasurePackedProbe(t *testing.T) {
	probe := measuredProbe(t, "packed-mm")
	if probe.Metric != exp.MetricAllocs || probe.N != 64 {
		t.Errorf("unexpected probe shape: %+v", probe)
	}
	if probe.Value <= 0 {
		t.Errorf("allocs/op = %v, want > 0", probe.Value)
	}
	// The packed product allocates its broadcast table from the pooled
	// scratch and one output row per call; anything in the 10^5 range
	// means the pooling came unhooked.
	if probe.Value > 100_000 {
		t.Errorf("allocs/op = %v; the packed boolean-MM path has regressed badly", probe.Value)
	}
}

func TestMeasureBenchProbe(t *testing.T) {
	probe := measuredProbe(t, "exchange")
	if probe.Metric != exp.MetricAllocs || probe.N != 64 {
		t.Errorf("unexpected probe shape: %+v", probe)
	}
	if probe.Value <= 0 {
		t.Errorf("allocs/op = %v, want > 0", probe.Value)
	}
	// The whole point of the batched collective plane: the canonical
	// exchange (64 nodes x 256 rounds of one-word gossip) must stay
	// around a thousand allocations per run, not the ~10^6 the
	// hand-rolled per-round tables used to cost.
	if probe.Value > 100_000 {
		t.Errorf("allocs/op = %v; the batched exchange path has regressed badly", probe.Value)
	}
	if _, err := exp.MeasureProbes("no-such-backend"); err == nil {
		t.Error("unknown backend accepted")
	}
}
