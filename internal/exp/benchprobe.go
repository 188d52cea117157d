package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/matmul"
	"repro/internal/stats"
)

// Probe metrics: what a Probe's Value measures.
const (
	// MetricAllocs is the mean heap-allocation count per simulated run.
	// Allocation counts are near-deterministic, so allocation probes
	// carry no wall time and the gate on them sees no timing noise.
	MetricAllocs = "allocs_per_op"
	// MetricRoundsPerSec is the best-of-runs steady-state throughput in
	// simulated rounds per second, aggregated over the whole batch for
	// batched probes. The minimum wall time over several runs estimates
	// undisturbed speed far more stably than a mean.
	MetricRoundsPerSec = "rounds_per_sec"
)

// Probe is one canonical hot-path workload executed repeatedly while a
// single metric is measured. MeasureProbes produces the set that ships
// in every timed report; like Throughput the probes are attached only
// when timing was requested, so the deterministic envelope is
// unaffected. The committed baseline's probes are the references for
// the gate table in registry.go.
type Probe struct {
	Name         string `json:"name"`
	Metric       string `json:"metric"`
	Backend      string `json:"backend"`
	N            int    `json:"n"`
	WordsPerPair int    `json:"words_per_pair"`
	Rounds       int    `json:"rounds"`
	Runs         int    `json:"runs"`
	// Batch is the number of independent runs per measured execution;
	// set only by the batched probes.
	Batch int     `json:"batch,omitempty"`
	Value float64 `json:"value"`
	// Dist is the per-run distribution behind Value; the
	// variance-aware gate widens its tolerance by the baseline's
	// recorded spread.
	Dist *stats.Summary `json:"dist,omitempty"`
}

// Canonical exchange shape: dense one-word gossip at the engine
// microbenchmark's size, long enough that steady-state rounds dominate
// setup.
const (
	benchProbeN      = 64
	benchProbeWPP    = 1
	benchProbeRounds = 256
	benchProbeRuns   = 5
)

// Batched-probe shape: the seed-sweep regime the batched plane targets.
// Per-run setup and scheduling overhead dominates an n=8 exchange, so
// cross-run amortisation shows up directly; at the canonical n=64 the
// engine's cache-sized chunking deliberately keeps batched execution at
// serial parity instead.
const (
	batchedProbeN     = 8
	batchedProbeBatch = 8
)

// benchProbeProgram is the canonical exchange node program: one
// broadcast word per node per round, read back through the reused
// collective table.
func benchProbeProgram(nd *clique.Node) {
	var table []uint64
	for r := 0; r < benchProbeRounds; r++ {
		table = comm.BroadcastWordInto(nd, uint64(nd.ID()+r), table)
	}
}

// packedProbeProgram is the packed boolean-MM node program: one
// word-parallel naive boolean product per round (at n=64 the packed row
// is a single word, so each product costs exactly one round), the
// steady-state loop of the bit-packed data plane.
func packedProbeProgram(nd *clique.Node) {
	n := nd.N()
	row := bitvec.NewRow(n)
	for i := nd.ID() % 3; i < n; i += 3 {
		row.Set(i)
	}
	for r := 0; r < benchProbeRounds; r++ {
		matmul.MulNaiveBits(nd, row, row)
	}
}

// MeasureProbes runs every probe on the given backend, in order:
//
//   - exchange: allocations of the canonical exchange, the per-round
//     gossip pattern the serving hot path runs through the collective
//     layer;
//   - packed-mm: allocations of the packed boolean product, the
//     watchdog over the bitvec scratch pooling;
//   - trace-off: throughput of the canonical exchange with no tracer
//     attached, the reference for the trace plane's zero-cost-when-off
//     claim;
//   - batched-serial: throughput of batchedProbeBatch small exchanges
//     run back-to-back, the ungated reference for the next probe;
//   - batched: the same runs through one clique.RunBatch. Its ratio to
//     batched-serial is the batched plane's speedup.
//
// Every probe excludes one warm-up run, so pooled mailboxes and lazily
// grown buffers do not bill the steady state. MeasureProbes must run
// while no other simulations execute; cliquebench measures after its
// worker pool has drained.
func MeasureProbes(backend string) ([]*Probe, error) {
	canonical := clique.Config{N: benchProbeN, WordsPerPair: benchProbeWPP, Backend: backend}
	small := clique.Config{N: batchedProbeN, WordsPerPair: benchProbeWPP, Backend: backend}
	exchange := func() error { return checkProbeRounds(clique.Run(canonical, benchProbeProgram)) }
	progs := make([]clique.NodeFunc, batchedProbeBatch)
	for i := range progs {
		progs[i] = benchProbeProgram
	}
	specs := []struct {
		name, metric string
		cfg          clique.Config
		batch        int
		run          func() error
	}{
		{"exchange", MetricAllocs, canonical, 0, exchange},
		{"packed-mm", MetricAllocs, canonical, 0, func() error {
			return checkProbeRounds(clique.Run(canonical, packedProbeProgram))
		}},
		{"trace-off", MetricRoundsPerSec, canonical, 0, exchange},
		{"batched-serial", MetricRoundsPerSec, small, batchedProbeBatch, func() error {
			for range progs {
				if err := checkProbeRounds(clique.Run(small, benchProbeProgram)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batched", MetricRoundsPerSec, small, batchedProbeBatch, func() error {
			results, errs := clique.RunBatch(small, progs)
			for i := range results {
				if err := checkProbeRounds(results[i], errs[i]); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	probes := make([]*Probe, 0, len(specs))
	for _, s := range specs {
		p := &Probe{Name: s.name, Metric: s.metric, Backend: backend, N: s.cfg.N,
			WordsPerPair: s.cfg.WordsPerPair, Rounds: benchProbeRounds, Runs: benchProbeRuns, Batch: s.batch}
		if err := s.run(); err != nil { // warm-up
			return nil, fmt.Errorf("exp: probe %s: %w", s.name, err)
		}
		var err error
		if s.metric == MetricAllocs {
			err = p.measureAllocs(s.run)
		} else {
			err = p.measureRate(max(1, s.batch)*benchProbeRounds, s.run)
		}
		if err != nil {
			return nil, fmt.Errorf("exp: probe %s: %w", s.name, err)
		}
		probes = append(probes, p)
	}
	return probes, nil
}

// checkProbeRounds passes a run's error through and rejects a run that
// did not take the canonical round count.
func checkProbeRounds(res *clique.Result, err error) error {
	if err != nil {
		return err
	}
	if res.Stats.Rounds != benchProbeRounds {
		return fmt.Errorf("ran %d rounds, want %d", res.Stats.Rounds, benchProbeRounds)
	}
	return nil
}

// measureAllocs sets Value to the mean per-run heap-allocation count
// over p.Runs runs and Dist to their spread. ReadMemStats itself does
// not allocate.
func (p *Probe) measureAllocs(run func() error) error {
	var before, after runtime.MemStats
	runtime.GC()
	samples := make([]float64, 0, p.Runs)
	runtime.ReadMemStats(&before)
	for i := 0; i < p.Runs; i++ {
		if err := run(); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		samples = append(samples, float64(after.Mallocs-before.Mallocs))
		before = after
	}
	dist := stats.Summarize(samples, 0)
	p.Value, p.Dist = dist.Mean, &dist
	return nil
}

// measureRate sets Value to rounds over the best wall time of p.Runs
// runs and Dist to the per-run rate distribution.
func (p *Probe) measureRate(rounds int, run func() error) error {
	var best time.Duration
	samples := make([]float64, 0, p.Runs)
	for i := 0; i < p.Runs; i++ {
		start := time.Now()
		if err := run(); err != nil {
			return err
		}
		wall := time.Since(start)
		if best == 0 || wall < best {
			best = wall
		}
		if wall > 0 {
			samples = append(samples, float64(rounds)/wall.Seconds())
		}
	}
	if best > 0 {
		p.Value = float64(rounds) / best.Seconds()
	}
	dist := stats.Summarize(samples, 0)
	p.Dist = &dist
	return nil
}
