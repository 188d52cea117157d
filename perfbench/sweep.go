package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sweepAlgorithms are the light catalogue entries: short runs in which
// engine scheduling, round exchange, comm collectives and allocation
// dominate, and no oracle runs.
var sweepAlgorithms = []string{"exchange", "triangle", "k-is", "k-vc", "boolmm-3d", "mst", "mst-sparse", "mst-sketch"}

var sweepNs = []int{8, 16, 32, 64}

// sweepSeedCount seeds per pass: with cliquegrid's default warm-up (1)
// and repeats (3), one pass executes 8 × 4 × 4 × 4 = 512 runs. Each pass
// draws a fresh seed set, so a run averages over many instances: one
// 4-seed set's throughput differs from another's by up to 12%.
const sweepSeedCount = 4

// splitmix64 is the seed expander: the benchmark's --seed picks the
// instance seeds, the program only sees the generated instances.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sweepSeeds derives pass number pass's instance seeds from the
// workload seed. Pass 0 is set-up's warm-up.
func sweepSeeds(seed uint64, pass int) []uint64 {
	seeds := make([]uint64, sweepSeedCount)
	x := splitmix64(seed) + uint64(pass)*sweepSeedCount
	for i := range seeds {
		x = splitmix64(x)
		seeds[i] = x >> 32
	}
	return seeds
}

func sweepSpec(seeds []uint64) *grid.Spec {
	spec := &grid.Spec{Name: "perfbench-sweep", Backend: backend}
	for _, a := range sweepAlgorithms {
		spec.Experiments = append(spec.Experiments, grid.Block{Algorithm: a, Ns: sweepNs, Seeds: seeds})
	}
	return spec
}

// cellKey identifies one sweep instance.
type cellKey struct {
	alg  string
	n    int
	seed uint64
}

type cost struct{ rounds, words int64 }

// sweepState is what set-up leaves for the timed passes.
type sweepState struct {
	// cells are the warm-up pass's cells (seed set 0); the batch probe
	// and the traced pass reuse them with their generated programs.
	cells []grid.Cell
	progs []clique.NodeFunc
}

// sweepSetup expands the warm-up grid, generates its instances and
// warms up with one full grid pass over them.
func sweepSetup(seed uint64) (*sweepState, error) {
	spec := sweepSpec(sweepSeeds(seed, 0))
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	st := &sweepState{cells: spec.Expand()}
	for _, c := range st.cells {
		alg, ok := workload.Get(c.Algorithm)
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q", c.Algorithm)
		}
		st.progs = append(st.progs, alg.Make(c.N, c.Seed))
	}
	if _, _, err := grid.Run(context.Background(), spec, grid.Options{Backend: backend}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// sweepReference computes each cell's model cost on the goroutine
// backend, an engine independent of the lockstep one under test (model
// costs are backend-invariant), on GOMAXPROCS workers.
func sweepReference(cells []cellKey) (map[cellKey]cost, error) {
	var (
		mu       sync.Mutex
		ref      = map[cellKey]cost{}
		firstErr error
		wg       sync.WaitGroup
	)
	jobs := make(chan cellKey)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				alg, _ := workload.Get(k.alg)
				res, err := clique.Run(clique.Config{N: k.n, WordsPerPair: alg.WPP, Backend: "goroutine"}, alg.Make(k.n, k.seed))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s n=%d seed=%d: %w", k.alg, k.n, k.seed, err)
				} else if err == nil {
					ref[k] = cost{int64(res.Stats.Rounds), res.Stats.WordsSent}
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range cells {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return ref, firstErr
}

func keyOf(c grid.Cell) cellKey { return cellKey{c.Algorithm, c.N, c.Seed} }

// runSweep times grid.Run seed sweeps with cliquegrid's default,
// unbatched execution for the given number of seconds, each pass on a
// fresh seed set.
func runSweep(opts options) (*outcome, error) {
	o, err := newOutcome()
	if err != nil {
		return nil, err
	}
	st, probe, err := setupMedian(o, 3, func() (*sweepState, error) { return sweepSetup(opts.seed) }, func(*sweepState) {})
	if err != nil {
		return nil, err
	}

	perPass := len(st.cells) * (grid.DefaultWarmup + grid.DefaultRepeats)
	// A timed pass: the probe before it, its rate and its recorded run
	// walls, as measured.
	type pass struct {
		at     int
		rate   float64
		runsMS []float64
	}
	var (
		records            []grid.RunRecord
		timed              []pass
		gridWall, overhead time.Duration
		passes             int
	)
	before := readCounters()
	heap := startHeapSampler(time.Second)
	for passes == 0 || gridWall.Seconds() < opts.seconds {
		passes++
		spec := sweepSpec(sweepSeeds(opts.seed, passes))
		start := time.Now()
		_, recs, err := grid.Run(context.Background(), spec, grid.Options{Backend: backend})
		wall := time.Since(start)
		gridWall += wall
		at := probe
		probe = o.cal.probe()
		if err != nil {
			o.fail(len(st.cells)*grid.DefaultRepeats, "pass %d: %v", passes, err)
			continue
		}
		p := pass{at: at, rate: float64(perPass) / wall.Seconds()}
		var recorded time.Duration
		for _, r := range recs {
			p.runsMS = append(p.runsMS, float64(r.WallNS)/1e6)
			recorded += time.Duration(r.WallNS)
		}
		timed = append(timed, p)
		// Warm-up runs are timed by grid.Run but not recorded; bill them
		// at the recorded runs' mean so the overhead is the grid's own.
		overhead += wall - recorded*time.Duration(grid.DefaultWarmup+grid.DefaultRepeats)/time.Duration(grid.DefaultRepeats)
		records = append(records, recs...)
	}
	o.e2e["peak_heap_mb"] = heap.peakMB()
	after := readCounters()
	o.attempted = passes * len(st.cells) * grid.DefaultRepeats

	keys := make([]cellKey, 0, len(st.cells)*(passes+1))
	for _, c := range st.cells {
		keys = append(keys, keyOf(c))
	}
	for i, r := range records {
		if r.Repeat == 0 {
			keys = append(keys, keyOf(records[i].Cell))
		}
	}
	t0 := time.Now()
	ref, err := sweepReference(keys)
	if err != nil {
		return nil, err
	}
	if opts.perturb == "sweep-ref" {
		k := keyOf(records[0].Cell)
		c := ref[k]
		c.rounds++
		ref[k] = c
	}
	bad := 0
	for _, r := range records {
		if ref[keyOf(r.Cell)] != (cost{r.Rounds, r.Words}) {
			bad++
		}
	}
	if bad > 0 {
		o.fail(bad, "%d recorded runs differ from the goroutine-backend reference cost", bad)
	}

	// The tail is taken per window of tailPasses passes, each with at
	// least ten recorded runs beyond its p99, and the run's tail_ms is
	// the median window's. Like the median pass for ops_per_s, this
	// keeps a burst of machine noise, which stretches the slowest runs
	// of one window far more than the probes see, from moving the whole
	// run's figure.
	const tailPasses = 3
	var runMS, rawMS, passRates, rawRates, tails, rawTails, winMS, winRaw []float64
	for i, p := range timed {
		slow := o.cal.around(p.at)
		passRates = append(passRates, p.rate*slow)
		rawRates = append(rawRates, p.rate)
		for _, ms := range p.runsMS {
			winMS = append(winMS, ms/slow)
			winRaw = append(winRaw, ms)
		}
		if (i+1)%tailPasses == 0 || (i == len(timed)-1 && len(tails) == 0) {
			tails = append(tails, quantile(winMS, 0.99))
			rawTails = append(rawTails, quantile(winRaw, 0.99))
			runMS, rawMS = append(runMS, winMS...), append(rawMS, winRaw...)
			winMS, winRaw = nil, nil
		}
	}
	runMS, rawMS = append(runMS, winMS...), append(rawMS, winRaw...)
	// The median pass keeps a burst of machine noise from moving the
	// whole run's figure.
	o.e2e["ops_per_s"], o.raw["ops_per_s"] = median(passRates), median(rawRates)
	o.e2e["p50_ms"], o.raw["p50_ms"] = median(runMS), median(rawMS)
	o.e2e["tail_ms"], o.raw["tail_ms"] = median(tails), median(rawTails)
	o.notef("%d passes of %d runs over %d seeds in %.3f s; %d recorded runs (tail_ms is the median p99 of %d windows of %d passes)",
		passes, perPass, passes*sweepSeedCount, gridWall.Seconds(), len(runMS), len(tails), tailPasses)
	o.notef("reference: %d cells on the goroutine backend in %.3f s", len(keys), time.Since(t0).Seconds())

	m := o.layer
	m["sweep.runs_per_s"] = o.raw["ops_per_s"]
	m["grid.overhead_s"] = overhead.Seconds() / float64(passes)
	layerCounters(before, after, m)
	m["engine.allocs"] /= float64(passes)
	m["engine.alloc_mb"] /= float64(passes)
	if !opts.trace {
		return o, nil
	}
	serialWall := sweepBatchProbe(o, st, ref)
	sweepTraced(o, st, ref, serialWall, opts.seed)
	return o, nil
}

// sweepBatchProbe times the same cells untraced through clique.Run one
// by one and through clique.RunBatch per (algorithm, n) seed group,
// alternating the two, and reports batched ÷ serial speed with the
// serial rate as its base. It returns the serial pass's median wall.
func sweepBatchProbe(o *outcome, st *sweepState, ref map[cellKey]cost) time.Duration {
	type group struct {
		cfg   clique.Config
		cells []int
	}
	var groups []group
	for i, c := range st.cells {
		if g := len(groups) - 1; g >= 0 && groups[g].cfg.N == c.N && st.cells[groups[g].cells[0]].Algorithm == c.Algorithm {
			groups[g].cells = append(groups[g].cells, i)
			continue
		}
		groups = append(groups, group{clique.Config{N: c.N, WordsPerPair: c.WPP, Backend: backend}, []int{i}})
	}
	check := func(i int, res *clique.Result, err error) {
		c := st.cells[i]
		o.attempted++
		if err != nil {
			o.fail(1, "batch probe %s n=%d: %v", c.Algorithm, c.N, err)
		} else if ref[keyOf(c)] != (cost{int64(res.Stats.Rounds), res.Stats.WordsSent}) {
			o.fail(1, "batch probe %s n=%d seed=%d: cost differs from the reference", c.Algorithm, c.N, c.Seed)
		}
	}
	var serial, batched []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for _, g := range groups {
			for _, i := range g.cells {
				res, err := clique.Run(g.cfg, st.progs[i])
				check(i, res, err)
			}
		}
		serial = append(serial, time.Since(start).Seconds())

		start = time.Now()
		for _, g := range groups {
			progs := make([]clique.NodeFunc, len(g.cells))
			for j, i := range g.cells {
				progs[j] = st.progs[i]
			}
			results, errs := clique.RunBatch(g.cfg, progs)
			for j, i := range g.cells {
				check(i, results[j], errs[j])
			}
		}
		batched = append(batched, time.Since(start).Seconds())
	}
	s, b := median(serial), median(batched)
	o.layer["engine.batch_speedup"] = s / b
	o.layer["engine.batch_serial_runs_per_s"] = float64(len(st.cells)) / s
	return time.Duration(s * float64(time.Second))
}

// sweepTraced runs every cell once more through clique.Run with a trace
// collector (a tracer forces the serial path) and attributes the time
// to the engine and comm layers; instance generation is timed here too.
func sweepTraced(o *outcome, st *sweepState, ref map[cellKey]cost, untraced time.Duration, seed uint64) {
	split := newTraceSplit()
	var makeTime, runTime time.Duration
	var rounds, words int64
	for _, c := range st.cells {
		alg, _ := workload.Get(c.Algorithm)
		t0 := time.Now()
		prog := alg.Make(c.N, c.Seed)
		t1 := time.Now()
		col := trace.NewCollector(fmt.Sprintf("%s n=%d seed=%d", c.Algorithm, c.N, c.Seed), c.N, c.WPP)
		res, err := clique.Run(clique.Config{N: c.N, WordsPerPair: c.WPP, Backend: backend, Tracer: col}, prog)
		t2 := time.Now()
		makeTime += t1.Sub(t0)
		runTime += t2.Sub(t1)
		o.attempted++
		if err != nil {
			o.fail(1, "traced %s n=%d: %v", c.Algorithm, c.N, err)
			continue
		}
		if ref[keyOf(c)] != (cost{int64(res.Stats.Rounds), res.Stats.WordsSent}) {
			o.fail(1, "traced %s n=%d seed=%d: cost differs from the reference", c.Algorithm, c.N, c.Seed)
		}
		rounds += int64(res.Stats.Rounds)
		words += res.Stats.WordsSent
		split.add(col.Finish())
	}
	split.metrics(o.layer)
	o.layer["engine.rounds"] = float64(rounds)
	o.layer["clique.words"] = float64(words)
	o.layer["workload.make_s"] = makeTime.Seconds()
	o.layer["trace.overhead_frac"] = runTime.Seconds()/untraced.Seconds() - 1
	if path, err := split.write("sweep", seed); err != nil {
		o.fail(1, "writing spans: %v", err)
	} else {
		o.notef("traced pass: %.3f s over %d runs, spans in %s", runTime.Seconds(), len(st.cells), path)
	}
}
