// Command perfbench is the repository's benchmark. It drives the
// simulator, the experiment registry, the grid runner and the cliqued
// service as libraries from one process, times the calls from outside,
// checks every output against a reference, and attributes time to the
// layers in a separate traced pass. README.md in this directory says
// why each workload exists and which end-to-end metric each per-layer
// metric should move.
//
//	bash perfbench/run.sh --workload registry|sweep|serve|all \
//	    --seed N --seconds S --trace 0|1 [--perturb CHECK]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end ones with --trace 0,
// per-layer ones with --trace 1).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/exp"
)

// buildDir holds everything a run writes, relative to the checkout
// root the benchmark runs from.
const buildDir = ".bench_build"

// backend is pinned everywhere: the library default
// (engine.DefaultBackend) is "goroutine", while every CLI and cliqued
// default to "lockstep", which is what users run.
const backend = "lockstep"

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0. Each
// is measured with tracing off; README.md gives their meaning per
// workload. Times and rates are in reference seconds (calibrate.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer are the metrics every workload reports with --trace 1. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"engine.rounds", "count"},
	{"engine.exchange_s", "s"},
	{"engine.node_s", "s"},
	{"engine.allocs", "count"},
	{"engine.alloc_mb", "MB"},
	{"engine.mailbox_pool_hit_ratio", "ratio"},
	{"engine.scratch_pool_hit_ratio", "ratio"},
	{"engine.batch_speedup", "ratio"},
	{"engine.batch_serial_runs_per_s", "runs/s"},
	{"clique.words", "count"},
	{"comm.route_s", "s"},
	{"comm.alltoall_s", "s"},
	{"comm.broadcast_s", "s"},
	{"comm.sparse_s", "s"},
	{"comm.other_s", "s"},
	{"comm.ops", "count"},
	{"graph.maxis_solve_ms", "ms"},
	{"graph.domset_check_us", "us"},
	{"workload.make_s", "s"},
	{"exp.fig1_s", "s"},
	{"exp.thm9_s", "s"},
	{"exp.fpt_s", "s"},
	{"exp.thm2_s", "s"},
	{"exp.other_s", "s"},
	{"exp.sim_share", "ratio"},
	{"grid.overhead_s", "s"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.run_wall_p50_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.jobs_shed", "count"},
	{"serve.jobs_failed", "count"},
	{"ledger.append_p50_us", "us"},
	{"ledger.get_p50_us", "us"},
	{"ledger.open_ms", "ms"},
	{"ledger.errors", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"error_rate", "ratio"},
	{"registry.wall_s", "s"},
	{"sweep.runs_per_s", "runs/s"},
	{"serve.req_per_s", "req/s"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cold_p99_ms", "ms"},
	{"serve.mem_p50_ms", "ms"},
	{"serve.mem_p99_ms", "ms"},
	{"serve.ledger_p50_ms", "ms"},
	{"serve.ledger_p99_ms", "ms"},
	{"machine.slowdown", "ratio"},
}

// options are the command-line settings a workload runs with.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// perturb names one correctness check (see perturbations) whose
	// reference is corrupted in one place, to show the check fires.
	perturb string
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int
	// e2e holds the end-to-end metrics in reference seconds, raw the
	// same metrics as measured (calibrate.go).
	e2e, raw map[string]float64
	layer    map[string]float64
	// notes are printed before the metrics: sample counts, the held-out
	// seed, where the traced pass's spans were written.
	notes []string
	cal   *calibration
}

func newOutcome() (*outcome, error) {
	cal, err := newCalibration()
	if err != nil {
		return nil, err
	}
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, raw: map[string]float64{}, cal: cal}, nil
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.notef("FAIL: "+format, args...)
}

// noteCalibration records the run's machine slowdown and the
// end-to-end times as measured, before they were normalized.
func (o *outcome) noteCalibration() {
	var ms []float64
	for _, p := range o.cal.probes {
		ms = append(ms, p...)
	}
	s := o.cal.slowdown()
	o.layer["machine.slowdown"] = s
	o.notef("machine slowdown %.4f: calibration kernel p10 %.3f, p50 %.3f, p90 %.3f ms over %d runs in %d probes, reference %.1f ms",
		s, quantile(ms, 0.1), median(ms), quantile(ms, 0.9), len(ms), len(o.cal.probes), calibRefMS)
	o.notef("as measured: setup_s %.6g s, ops_per_s %.6g 1/s, p50_ms %.6g ms, tail_ms %.6g ms",
		o.raw["setup_s"], o.raw["ops_per_s"], o.raw["p50_ms"], o.raw["tail_ms"])
}

// perturbations are the correctness checks --perturb can show firing.
var perturbations = []string{
	"registry-ref", // one table cell of the registry reference envelope
	"sweep-ref",    // one cell's reference round count
	"serve-body",   // one byte of one memory-tier response body
	"serve-ref",    // one byte of one exp.RunExperiment reference envelope
	"serve-tiers",  // the client's memory-tier count, before reconciling with /metrics
}

var workloads = map[string]func(options) (*outcome, error){
	"registry": runRegistry,
	"sweep":    runSweep,
	"serve":    runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "registry, sweep, serve or all")
		seed     = flag.Uint64("seed", 1, "workload seed (the registry fixes its own instances)")
		seconds  = flag.Float64("seconds", 10, "how long the sweep and serve workloads measure")
		traced   = flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
		perturb  = flag.String("perturb", "", "corrupt one value seen by this correctness check, to show it fires: "+strings.Join(perturbations, ", "))
	)
	flag.Parse()
	if err := run(*workload, options{*seed, *seconds, *traced == 1, *perturb}, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, opts options, traced int) error {
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	if opts.perturb != "" && !slices.Contains(perturbations, opts.perturb) {
		return fmt.Errorf("unknown --perturb %q (%s)", opts.perturb, strings.Join(perturbations, ", "))
	}
	if opts.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var names []string
	if workload == "all" {
		names = []string{"registry", "sweep", "serve"}
	} else if _, ok := workloads[workload]; ok {
		names = []string{workload}
	} else {
		return fmt.Errorf("unknown --workload %q (registry, sweep, serve or all)", workload)
	}
	env, err := environment()
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", env)

	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, name := range names {
		o, err := workloads[name](opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		o.layer["error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))
		o.noteCalibration()
		printOutcome(os.Stdout, name, opts, o)
		final.Attempted += o.attempted
		final.Failed += o.failed
		if o.failed > 0 || o.attempted == 0 {
			final.Correct = false
		}
		defs, vals := endToEnd, o.e2e
		if opts.trace {
			defs, vals = perLayer, o.layer
		}
		for _, d := range defs {
			key := d.name
			if len(names) > 1 {
				key = name + "." + d.name
			}
			final.Metrics[key] = map[string]any{"value": vals[d.name], "unit": d.unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printOutcome writes the human-readable report: notes, the end-to-end
// metrics, and with --trace 1 the per-layer metrics.
func printOutcome(w io.Writer, name string, opts options, o *outcome) {
	fmt.Fprintf(w, "== %s (seed %d, %d attempted, %d failed)\n", name, opts.seed, o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", d.name, o.e2e[d.name], d.unit)
	}
	if !opts.trace {
		return
	}
	fmt.Fprintf(w, "   -- per-layer (traced pass)\n")
	for _, d := range perLayer {
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", d.name, o.layer[d.name], d.unit)
	}
}

// environment describes the machine and the build: nproc, GOMAXPROCS,
// the Go version and the commit. Outside a git checkout the build has
// no VCS stamp, so the commit is identified by a digest of the
// program's Go sources instead.
func environment() (string, error) {
	b := exp.Build()
	commit := b.Revision
	if b.Dirty {
		commit += "+dirty"
	}
	digest, err := sourceDigest(".")
	if err != nil {
		return "", err
	}
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s backend=%s commit=%s source_sha256=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), backend, commit, digest), nil
}

// sourceDigest hashes every .go file and go.mod under root, in the
// walk's lexical order, skipping the build directory.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == buildDir || d.Name() == ".git") {
			return fs.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", errors.New("no Go sources found: run from the root of a checkout")
	}
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
