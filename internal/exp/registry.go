package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Experiment is one registered entry: an identifier, the paper artefact
// it reproduces, and a body that fills in the Result through the Ctx.
type Experiment struct {
	// ID is the stable key used by -exp, JSON, and benchmarks.
	ID string
	// Artefact names the paper artefact ("E1 / Figure 1").
	Artefact string
	// Title is the one-line description shown in reports and -exp help.
	Title string
	// Run computes the experiment. It reports findings through c and
	// aborts via c.Failf; it must be deterministic for a fixed
	// (Backend, Quick) pair.
	Run func(c *Ctx)
}

// registry holds the experiments in registration (= report) order.
var (
	regMu    sync.RWMutex
	registry []Experiment
	byID     = map[string]int{}
)

// Register adds an experiment; duplicate IDs panic at init time.
func Register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byID[e.ID]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment id %q", e.ID))
	}
	if e.ID == "" || e.Run == nil {
		panic(fmt.Sprintf("exp: experiment %+v missing ID or Run", e))
	}
	byID[e.ID] = len(registry)
	registry = append(registry, e)
}

// All returns the experiments in report order.
func All() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the experiment ids in report order.
func IDs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Info is the serialisable registry-listing entry. It is the one shape
// shared by `cliquebench -list`, the cliqued service's /v1/experiments
// endpoint, and the cmd/genexperiments table generator, so the three
// listings cannot drift apart.
type Info struct {
	ID       string `json:"id"`
	Artefact string `json:"artefact"`
	Title    string `json:"title"`
}

// Infos returns the registry listing in report order.
func Infos() []Info {
	all := All()
	infos := make([]Info, len(all))
	for i, e := range all {
		infos[i] = Info{ID: e.ID, Artefact: e.Artefact, Title: e.Title}
	}
	return infos
}

// Get looks up one experiment by id.
func Get(id string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	i, ok := byID[id]
	if !ok {
		return Experiment{}, false
	}
	return registry[i], true
}

// Help renders the -exp flag help from the registry so the flag can
// never drift from the dispatch: "all" plus every id with its artefact.
func Help() string {
	var sb strings.Builder
	sb.WriteString("experiment id: all")
	for _, e := range All() {
		sb.WriteString(", ")
		sb.WriteString(e.ID)
	}
	return sb.String()
}

// Resolve expands an -exp flag value ("all", one id, or a
// comma-separated list) into registry ids, rejecting unknown ones with
// an error that lists the valid set — also derived from the registry.
func Resolve(spec string) ([]string, error) {
	if spec == "" || spec == "all" {
		return IDs(), nil
	}
	var ids []string
	seen := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, ok := Get(id); !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", id, strings.Join(IDs(), ", "))
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiments selected (valid: all, %s)", strings.Join(IDs(), ", "))
	}
	return ids, nil
}

// Options configure a registry run.
type Options struct {
	// Backend is the execution engine name; empty means the default.
	Backend string
	// Quick shrinks instance sizes (tests, smoke jobs).
	Quick bool
	// Parallel is the worker-pool width; values < 2 run sequentially.
	// Results keep registry order regardless.
	Parallel int
	// Progress, when non-nil, is invoked after every simulated run with
	// a Progress snapshot (cumulative SimCost plus current throughput).
	// It is called on the goroutine executing the experiment; with
	// Parallel > 1 that means concurrently, so a shared Progress must be
	// safe for concurrent use. Long-running callers (the cliqued SSE
	// stream) use it to report liveness without touching the
	// deterministic Result.
	Progress func(Progress)
	// Trace enables per-run trace collection and attaches the
	// cliquetrace/v1 summary block to every Result.
	Trace bool
	// TraceSink, when non-nil, also enables tracing and receives each
	// experiment's full RunTraces once it completes — the input to
	// trace.WriteChrome. Like Progress it runs on the experiment's
	// goroutine, concurrently under Parallel > 1.
	TraceSink func(id string, traces []*trace.RunTrace)
}

// traced reports whether runs should collect traces.
func (o Options) traced() bool { return o.Trace || o.TraceSink != nil }

// Timing is the nondeterministic half of a run, kept out of Result so
// serialised Results stay bit-identical across runs and worker counts.
type Timing struct {
	// SimWall is wall-clock spent inside simulated runs only.
	SimWall time.Duration
	// Rounds mirrors the summed SimCost.Rounds for convenience.
	Rounds int64
}

// RoundsPerSec is the throughput figure tracked by the perf trajectory.
func (t Timing) RoundsPerSec() float64 {
	if t.SimWall <= 0 {
		return 0
	}
	return float64(t.Rounds) / t.SimWall.Seconds()
}

// RunOne executes a single registered experiment without cancellation.
func RunOne(id string, opts Options) (*Result, Timing, error) {
	return RunOneContext(context.Background(), id, opts)
}

// RunOneContext executes a single registered experiment. Cancelling ctx
// aborts the experiment at its next simulated-run boundary (individual
// clique runs are not interrupted mid-flight; they are short relative
// to any realistic deadline) and returns the context's error.
func RunOneContext(ctx context.Context, id string, opts Options) (*Result, Timing, error) {
	e, ok := Get(id)
	if !ok {
		return nil, Timing{}, fmt.Errorf("exp: unknown experiment %q", id)
	}
	return RunExperiment(ctx, e, opts)
}

// RunExperiment executes one Experiment value, which need not be in the
// registry: the cliqued daemon runs ad-hoc algorithm requests by
// wrapping them as ephemeral Experiments, so they get the same counted
// Ctx, the same Result envelope, and the same cancellation semantics as
// registered experiments.
func RunExperiment(ctx context.Context, e Experiment, opts Options) (res *Result, tim Timing, err error) {
	if e.ID == "" || e.Run == nil {
		return nil, Timing{}, fmt.Errorf("exp: experiment %q missing ID or Run", e.ID)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, Timing{}, fmt.Errorf("exp %s: %w", e.ID, err)
	}
	backend := opts.Backend
	if backend == "" {
		backend = clique.DefaultBackend
	}
	c := &Ctx{Backend: backend, Quick: opts.Quick,
		ctx: ctx, progress: opts.Progress, tracing: opts.traced(),
		res: &Result{ID: e.ID, Artefact: e.Artefact, Title: e.Title}}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			res, err = nil, f.err
		}
		tim = Timing{SimWall: c.simWall}
		if res != nil {
			tim.Rounds = res.Sim.Rounds
		}
	}()
	e.Run(c)
	if opts.Trace {
		rep := trace.NewReport()
		for _, t := range c.traces {
			rep.Runs = append(rep.Runs, t.Summary())
		}
		c.res.Trace = rep
	}
	if opts.TraceSink != nil {
		opts.TraceSink(e.ID, c.traces)
	}
	return c.res, Timing{}, nil
}

// Run executes the given experiments without cancellation; see
// RunContext.
func Run(ids []string, opts Options) ([]*Result, Timing, error) {
	return RunContext(context.Background(), ids, opts)
}

// RunContext executes the given experiments — all independent of each
// other — on a worker pool of opts.Parallel goroutines and returns
// their Results in the requested order plus the aggregate Timing. The
// ordering, and every byte of every Result, is identical whatever the
// worker count; only Timing varies. Cancelling ctx makes every
// still-running or not-yet-started experiment fail fast, surfacing the
// context's error.
func RunContext(ctx context.Context, ids []string, opts Options) ([]*Result, Timing, error) {
	type slot struct {
		res *Result
		tim Timing
		err error
	}
	slots := make([]slot, len(ids))
	workers := opts.Parallel
	if workers < 2 || len(ids) < 2 {
		for i, id := range ids {
			slots[i].res, slots[i].tim, slots[i].err = RunOneContext(ctx, id, opts)
		}
	} else {
		if workers > len(ids) {
			workers = len(ids)
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					slots[i].res, slots[i].tim, slots[i].err = RunOneContext(ctx, ids[i], opts)
				}
			}()
		}
		for i := range ids {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	results := make([]*Result, len(ids))
	var total Timing
	var firstErr error
	for i := range slots {
		if slots[i].err != nil && firstErr == nil {
			firstErr = slots[i].err
		}
		results[i] = slots[i].res
		total.SimWall += slots[i].tim.SimWall
		total.Rounds += slots[i].tim.Rounds
	}
	if firstErr != nil {
		return nil, Timing{}, firstErr
	}
	return results, total, nil
}

// Report is the serialised envelope of a registry run: the JSON schema
// cliquebench emits, CI archives, and the BENCH_*.json perf trajectory
// stores. Everything outside Throughput and Probes is deterministic.
type Report struct {
	Schema  string `json:"schema"`
	Backend string `json:"backend"`
	// Quick records whether reduced sizes were used; quick and full
	// reports are not comparable.
	Quick       bool      `json:"quick,omitempty"`
	Experiments []*Result `json:"experiments"`
	// Throughput is only attached when the caller asked for timing
	// (cliquebench -timing); without it the whole Report is
	// bit-identical run to run and across -parallel settings.
	Throughput *Throughput `json:"throughput,omitempty"`
	// Probes are the hot-path probes of MeasureProbes, attached under
	// the same timing opt-in as Throughput.
	Probes []*Probe `json:"probes,omitempty"`
	// Build attributes the report to the producing binary (module
	// version, VCS revision, toolchain, available backends). It is
	// deterministic for a fixed binary, so envelopes stay bit-identical
	// run to run and across -parallel.
	Build *BuildInfo `json:"build"`
}

// Throughput is the measured simulator performance of one run. WallNS
// sums wall-clock spent inside simulated runs across all workers, so
// comparisons are only meaningful between runs with the same Workers
// value (the CI gate pins it).
type Throughput struct {
	SimRounds    int64   `json:"sim_rounds"`
	WallNS       int64   `json:"wall_ns"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	Workers      int     `json:"workers,omitempty"`
	// Dist is the rounds/sec distribution across cliquebench -repeats
	// registry runs (first repeat's block fields above, all repeats
	// here). When present, RoundsPerSec is its mean and Compare gates
	// against the confidence interval instead of a fixed fraction.
	Dist *stats.Summary `json:"dist,omitempty"`
}

// NewReport assembles the envelope; pass withTiming=false for
// deterministic output.
func NewReport(backend string, opts Options, results []*Result, tim Timing, withTiming bool) *Report {
	r := &Report{Schema: SchemaVersion, Backend: backend, Quick: opts.Quick,
		Experiments: results, Build: Build()}
	if withTiming {
		workers := opts.Parallel
		if workers < 2 {
			workers = 1
		}
		r.Throughput = &Throughput{
			SimRounds:    tim.Rounds,
			WallNS:       tim.SimWall.Nanoseconds(),
			RoundsPerSec: tim.RoundsPerSec(),
			Workers:      workers,
		}
	}
	return r
}

// Kinds of Compare findings.
const (
	// RegressMetric is a measured metric (a probe's Value or the
	// registry throughput) beyond its gate.
	RegressMetric = "metric"
	// RegressModelCost is a change in a shared experiment's simulated
	// rounds or words. Model costs only move when an algorithm changed,
	// so the tolerance is 0 and the finding is always fatal.
	RegressModelCost = "model-cost"
	// RegressMismatch is a pair of reports or probes that cannot be
	// compared: different schema, quick mode, probe shape or workers.
	RegressMismatch = "mismatch"
	// RegressMissing flags a metric tracked on one side only: a baseline
	// metric absent from the current report is lost gate coverage, and a
	// current metric absent from the baseline runs ungated until the
	// baseline is regenerated. Either way "nothing compared" is a
	// finding, not silence.
	RegressMissing = "missing"
)

// gate is one row of the gate table. A metric regresses when it moves
// in its worse direction by more than the slack. When the baseline
// carries a sample distribution (Dist blocks, written by cliquebench
// -repeats and the multi-run probes) the slack is a CI factor times the
// baseline's confidence-interval half-width, floored at minRelSlack of
// the baseline value so a freakishly quiet baseline cannot turn noise
// into alerts; without one it is a fixed fraction of the baseline
// value. absSlack is added in both cases.
type gate struct {
	higherIsBetter bool
	// warn and fail are the fixed fractions for distribution-free
	// baselines; fail 0 means the metric never fails the gate.
	warn, fail float64
	absSlack   float64
}

// The variance-aware gate warns beyond two 95% half-widths (roughly a
// four-sigma one-sided gate for small repeat counts) and fails beyond
// four, never tighter than minRelSlack of the baseline value.
const (
	warnCIFactor = 2
	failCIFactor = 4
	minRelSlack  = 0.02
)

// gates is the regression gate table, keyed by probe name; the
// "throughput" row gates the registry's Throughput block. Probes
// without a row (batched-serial) are compared for shape but not gated.
var gates = map[string]gate{
	// Allocation counts are deterministic up to runtime bookkeeping
	// noise, which the 16-alloc absolute slack absorbs; a larger rise
	// means a hot path started allocating.
	"exchange":  {warn: 0.10, fail: 0.25, absSlack: 16},
	"packed-mm": {warn: 0.10, fail: 0.25, absSlack: 16},
	// The trace plane claims a nil tracer costs under 1%, so the gate
	// sits exactly there.
	"trace-off": {higherIsBetter: true, warn: 0.01, fail: 0.01},
	// Batched throughput is a macro measurement (scheduler, mailboxes,
	// coroutine resumes), so it tolerates the registry fraction.
	"batched": {higherIsBetter: true, warn: 0.25, fail: 0.25},
	// Whole-registry rounds/sec on a shared runner: warn only.
	"throughput": {higherIsBetter: true, warn: 0.25},
}

// beyond reports whether cur is worse than base by more than the slack
// at the given CI factor and fixed fraction.
func (g gate) beyond(base, cur float64, dist *stats.Summary, ciFactor, frac float64) bool {
	slack := g.absSlack
	if dist != nil && dist.N >= 2 {
		slack += max(ciFactor*dist.HalfWidth(), minRelSlack*base)
	} else {
		slack += frac * base
	}
	if g.higherIsBetter {
		return base > 0 && cur < base-slack
	}
	return cur > base+slack
}

// check compares one metric under the gate: nothing, a warning, or a
// fatal finding.
func (g gate) check(what string, base, cur float64, dist *stats.Summary) []Regression {
	fatal := g.fail > 0 && g.beyond(base, cur, dist, failCIFactor, g.fail)
	if !fatal && !g.beyond(base, cur, dist, warnCIFactor, g.warn) {
		return nil
	}
	return []Regression{{What: what, Kind: RegressMetric, Baseline: base, Current: cur, Fatal: fatal}}
}

// Regression is one finding produced by Compare.
type Regression struct {
	// What identifies the degraded quantity.
	What string
	// Kind classifies the finding (Regress* constants).
	Kind string
	// Baseline and Current are the compared values.
	Baseline, Current float64
	// Fatal marks a finding that fails the comparison rather than
	// warning.
	Fatal bool
}

func (r Regression) String() string {
	switch {
	case r.Baseline == 0 && r.Current == 0:
		return r.What
	case r.Baseline == 0:
		return fmt.Sprintf("%s: baseline 0, current %.0f", r.What, r.Current)
	}
	return fmt.Sprintf("%s: baseline %.0f, current %.0f (%+.1f%%)",
		r.What, r.Baseline, r.Current, 100*(r.Current-r.Baseline)/r.Baseline)
}

// Compare checks a fresh report against a stored baseline. It walks the
// union of both reports' probes (missing on one side, shape mismatch,
// then the gate table), gates the throughput block the same way, and
// flags every change in a shared experiment's model costs as fatal.
// Findings come back in a deterministic order; the caller decides how
// to surface them (cliquebench fails on any Fatal one).
func Compare(baseline, current *Report) []Regression {
	if baseline.Schema != current.Schema {
		return []Regression{{Kind: RegressMismatch, What: fmt.Sprintf("schema mismatch: baseline %q vs current %q", baseline.Schema, current.Schema)}}
	}
	if baseline.Quick != current.Quick {
		return []Regression{{Kind: RegressMismatch, What: "quick-mode mismatch: baseline and current report are not comparable"}}
	}
	out := compareProbes(baseline.Probes, current.Probes)
	out = append(out, missingMetric("throughput block", baseline.Throughput != nil, current.Throughput != nil)...)
	if b, c := baseline.Throughput, current.Throughput; b != nil && c != nil {
		if b.Workers != c.Workers {
			out = append(out, Regression{Kind: RegressMismatch, What: fmt.Sprintf(
				"worker-count mismatch (baseline %d, current %d): throughput not compared", b.Workers, c.Workers)})
		} else {
			out = append(out, gates["throughput"].check(
				fmt.Sprintf("simulator throughput (rounds/sec, %s backend)", current.Backend),
				b.RoundsPerSec, c.RoundsPerSec, b.Dist)...)
		}
	}
	base := map[string]*Result{}
	for _, r := range baseline.Experiments {
		base[r.ID] = r
	}
	cur := map[string]*Result{}
	var ids []string
	for _, r := range current.Experiments {
		cur[r.ID] = r
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b, ok := base[id]
		if !ok {
			continue // new experiment: nothing to compare
		}
		c := cur[id]
		for _, cost := range []struct {
			what      string
			base, cur int64
		}{{"simulated rounds", b.Sim.Rounds, c.Sim.Rounds}, {"words", b.Sim.Words, c.Sim.Words}} {
			if cost.base != cost.cur {
				out = append(out, Regression{
					What:     fmt.Sprintf("%s: model cost changed (%s)", id, cost.what),
					Kind:     RegressModelCost,
					Baseline: float64(cost.base), Current: float64(cost.cur),
					Fatal: true,
				})
			}
		}
	}
	// A tracked experiment vanishing from the report is itself a
	// coverage regression (renamed, unregistered, or a subset run).
	var missing []string
	for _, r := range baseline.Experiments {
		if _, ok := cur[r.ID]; !ok {
			missing = append(missing, r.ID)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		out = append(out, Regression{Kind: RegressMissing, What: fmt.Sprintf(
			"baseline experiments missing from the current report: %s", strings.Join(missing, ", "))})
	}
	return out
}

// compareProbes walks the union of probe names in sorted order: a probe
// on one side only is missing, a probe whose shape changed is a
// mismatch, and the rest are checked against their gate table row.
func compareProbes(baseline, current []*Probe) []Regression {
	base, cur := map[string]*Probe{}, map[string]*Probe{}
	var names []string
	for _, p := range baseline {
		base[p.Name] = p
		names = append(names, p.Name)
	}
	for _, p := range current {
		cur[p.Name] = p
		if base[p.Name] == nil {
			names = append(names, p.Name)
		}
	}
	sort.Strings(names)
	var out []Regression
	for _, name := range names {
		b, c := base[name], cur[name]
		switch {
		case b == nil || c == nil:
			out = append(out, missingMetric("probe "+name, b != nil, c != nil)...)
		case b.Metric != c.Metric || b.Backend != c.Backend || b.N != c.N ||
			b.WordsPerPair != c.WordsPerPair || b.Rounds != c.Rounds || b.Batch != c.Batch:
			out = append(out, Regression{Kind: RegressMismatch, What: fmt.Sprintf(
				"probe %s shape mismatch (baseline %s %s n=%d wpp=%d rounds=%d batch=%d, current %s %s n=%d wpp=%d rounds=%d batch=%d): not compared",
				name, b.Metric, b.Backend, b.N, b.WordsPerPair, b.Rounds, b.Batch,
				c.Metric, c.Backend, c.N, c.WordsPerPair, c.Rounds, c.Batch)})
		default:
			if g, ok := gates[name]; ok {
				out = append(out, g.check(fmt.Sprintf("%s on the %s probe (%s backend)", c.Metric, name, c.Backend),
					b.Value, c.Value, b.Dist)...)
			}
		}
	}
	return out
}

// missingMetric distinguishes "metric tracked on one side only" from
// "no regression": a comparison that silently skips a gated metric is
// itself a finding.
func missingMetric(what string, inBase, inCurrent bool) []Regression {
	switch {
	case inBase && !inCurrent:
		return []Regression{{Kind: RegressMissing, What: fmt.Sprintf(
			"%s present in the baseline but missing from the current report: not compared (run with -timing)", what)}}
	case !inBase && inCurrent:
		return []Regression{{Kind: RegressMissing, What: fmt.Sprintf(
			"%s missing from the baseline: running ungated (regenerate the baseline)", what)}}
	}
	return nil
}
