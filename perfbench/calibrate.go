package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: its speed shifts by 20–35%
// and more, from one second to the next and for minutes at a time,
// with no steal time reported, so that whole runs of the same code on
// the same seed land in different regimes. Statistics inside a run
// cannot remove a shift that lasts longer than the run. The benchmark
// therefore measures the machine as well as the program: it probes the
// machine with a fixed calibration kernel of its own between the timed
// pieces of work, and reports every end-to-end time in reference
// seconds, i.e. each piece's wall divided by the slowdown the probes
// around it measured.
//
// The kernel is the benchmark's own code and allocates nothing, so no
// change to the program or its heap can move it: a program that gets
// slower reads slower. The raw walls stay in the notes and in the
// per-layer metrics, with the run's median slowdown as
// machine.slowdown. The correction is partial: in fast stretches of the
// host the kernel speeds up more than the program does.

// calibRefMS is the kernel's median wall on the reference machine: a
// 2-vCPU Intel Xeon VM at 2.1 GHz, GOMAXPROCS 2, go1.24.0.
const calibRefMS = 3.2

// calibIters is the kernel's fixed work, about 3 ms on the reference
// machine.
const calibIters = 400_000

// probeSamples is how many times a probe runs the kernel on every
// goroutine.
const probeSamples = 2

// probeWindow is how far from the middle of a piece of work the probes
// that count towards its slowdown may lie, or the piece's own length if
// that is longer: one probe's few kernel runs are too few to divide by,
// the host's shifts last longer than a few seconds, and a piece longer
// than the window is best divided by the machine's speed over as long a
// stretch as its own.
const probeWindow = 1500 * time.Millisecond

// calibration probes the machine and keeps every probe's kernel walls
// and the time it ended.
type calibration struct {
	bufs   [][]uint64
	probes [][]float64
	at     []time.Time
	sink   uint64
}

// calibBufWords is the size of each goroutine's buffer: 512 KiB.
const calibBufWords = 1 << 16

// newCalibration maps the kernel's buffers outside the Go heap, so that
// they neither count in peak_heap_mb nor move the program's GC pacing.
// They stay mapped until the process exits.
func newCalibration() (*calibration, error) {
	c := &calibration{}
	for range runtime.GOMAXPROCS(0) {
		mem, err := syscall.Mmap(-1, 0, 8*calibBufWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("calibration buffer: %w", err)
		}
		c.bufs = append(c.bufs, unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibBufWords))
	}
	return c, nil
}

// probe measures the machine now: probeSamples kernel runs on each of
// GOMAXPROCS goroutines. It returns the probe's index; the work done
// between probes i and i+1 is divided by around(i). It collects the
// heap first, so that the kernel does not share the machine with the
// tail of a GC cycle the program started, and the timed work after it
// starts on a collected heap.
func (c *calibration) probe() int {
	runtime.GC()
	var ms []float64
	for range probeSamples {
		ms = append(ms, c.sample()...)
	}
	c.probes = append(c.probes, ms)
	c.at = append(c.at, time.Now())
	return len(c.probes) - 1
}

// sample runs the kernel once on every goroutine, each on a cleared
// buffer so that every run does the same work, and returns each
// goroutine's own wall: how fast each CPU executes, without the time it
// takes to wake a second one.
func (c *calibration) sample() []float64 {
	var wg sync.WaitGroup
	out := make([]uint64, len(c.bufs))
	ms := make([]float64, len(c.bufs))
	for w := range c.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clear(c.bufs[w])
			start := time.Now()
			out[w] = calibKernel(c.bufs[w], uint64(2*w+1))
			ms[w] = msOf(time.Since(start))
		}()
	}
	wg.Wait()
	for _, v := range out {
		c.sink += v
	}
	return ms
}

// around is the slowdown over the work done between probes i and i+1:
// the median kernel wall over calibRefMS of the probes within
// probeWindow, or the piece's length if longer, of its middle. Above 1,
// the machine was slower than the reference.
func (c *calibration) around(i int) float64 {
	start, end := c.at[i], c.at[min(i+1, len(c.at)-1)]
	mid := start.Add(end.Sub(start) / 2)
	reach := max(probeWindow, end.Sub(start))
	var ms []float64
	for p, t := range c.at {
		if d := t.Sub(mid); -reach <= d && d <= reach {
			ms = append(ms, c.probes[p]...)
		}
	}
	return median(ms) / calibRefMS
}

// slowdown is the run's median kernel wall over calibRefMS.
func (c *calibration) slowdown() float64 {
	var ms []float64
	for _, p := range c.probes {
		ms = append(ms, p...)
	}
	return median(ms) / calibRefMS
}

// calibKernel mixes what the simulator's hot loops do: integer
// arithmetic, data-dependent branches, popcounts and random reads and
// writes over a buffer the size of a core's L2 cache.
func calibKernel(buf []uint64, seed uint64) uint64 {
	x, acc := seed, uint64(0)
	mask := uint64(len(buf) - 1)
	for range calibIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := buf[j]
		if v&1 == 0 {
			acc += uint64(bits.OnesCount64(v ^ x))
		} else {
			acc ^= v >> 3
		}
		buf[j] = v + x
	}
	return acc
}
