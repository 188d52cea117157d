package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/engine"
)

// Runtime counters read around a timed region. Allocation counts are
// cumulative since process start; the CPU classes are the runtime's
// own estimates, refreshed at every GC.
var counterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// counters is one snapshot of the runtime and engine counters the
// benchmark attributes to a timed region.
type counters struct {
	allocs, allocBytes      uint64
	gcCPU, totalCPU         float64
	poolHits, poolMisses    int64
	scratchHits, scratchMis int64
}

func readCounters() counters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var c counters
	c.allocs = s[0].Value.Uint64()
	c.allocBytes = s[1].Value.Uint64()
	c.gcCPU = s[2].Value.Float64()
	c.totalCPU = s[3].Value.Float64()
	c.poolHits, c.poolMisses = engine.PoolStats()
	c.scratchHits, c.scratchMis = engine.ScratchStats()
	return c
}

// layerCounters turns the difference of two snapshots into the
// engine.* allocation and pool metrics and runtime.gc_cpu_frac.
func layerCounters(before, after counters, m map[string]float64) {
	m["engine.allocs"] = float64(after.allocs - before.allocs)
	m["engine.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	m["engine.mailbox_pool_hit_ratio"] = ratio(after.poolHits-before.poolHits, after.poolMisses-before.poolMisses)
	m["engine.scratch_pool_hit_ratio"] = ratio(after.scratchHits-before.scratchHits, after.scratchMis-before.scratchMis)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// ratio is hits/(hits+misses), 0 when the pool was not drawn from.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// heapSampler polls the live heap while a timed region runs. The live
// heap is what the last GC marked reachable; unlike the in-use heap it
// does not depend on where between two GCs a sample lands. The region
// is cut into windows, each window keeps its peak (runtime/metrics has
// no high-water mark, so the largest of samples taken every
// heapSampleEvery), and the result is the median window peak: the
// maximum over a whole run is an extreme-value statistic of GC timing,
// which at the sweep's few-MB heaps swings by 25% from run to run.
type heapSampler struct {
	window time.Duration // 0: one window, the whole region
	stop   chan struct{}
	done   chan struct{}
	peaks  []float64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{window: window, stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	start := time.Now()
	sample := func() {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
	}
	sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				sample()
				if len(h.peaks) == 0 { // a partial last window only when it is the only one
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case now := <-t.C:
				sample()
				if h.window > 0 && now.Sub(start) >= h.window {
					h.peaks = append(h.peaks, float64(peak))
					peak, start = 0, now
				}
			}
		}
	}()
	return h
}

// peakMB stops the sampler, waits for it to exit and returns the median
// window peak of the live heap in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setupMedian runs set-up k times, tearing down all but the last, with
// a probe of the machine before the first and after each. It records
// the median set-up wall as setup_s, in reference seconds and as
// measured, and returns the last set-up's state and the last probe.
// Set-up is repeated because one set-up is short enough for machine
// noise to swing it by more than setup_s's bound.
func setupMedian[T any](o *outcome, k int, setup func() (T, error), teardown func(T)) (T, int, error) {
	var raw []float64
	var st T
	probe := o.cal.probe()
	first := probe
	for i := 0; i < k; i++ {
		start := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, err
		}
		raw = append(raw, time.Since(start).Seconds())
		probe = o.cal.probe()
		if i < k-1 {
			teardown(s)
			continue
		}
		st = s
	}
	walls := make([]float64, k)
	for i, w := range raw {
		walls[i] = w / o.cal.around(first+i)
	}
	o.e2e["setup_s"], o.raw["setup_s"] = median(walls), median(raw)
	return st, probe, nil
}
