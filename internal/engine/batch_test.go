package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// batchProgram is a deterministic mixed-traffic program whose behaviour
// depends on both the run index and the node id, so cross-run state
// leakage or mis-indexed mailboxes show up as stat/transcript drift.
func batchProgram(run int, rounds int) func(id int, rt NodeRuntime) {
	return func(id int, rt NodeRuntime) {
		var sum uint64
		for r := 0; r < rounds; r++ {
			rt.Broadcast(id, r, []uint64{uint64(run*1000 + id*10 + r)})
			if id%2 == 0 {
				to := (id + run + 1) % batchTestN
				if to != id {
					rt.Send(id, r, to, []uint64{uint64(run) ^ uint64(r)})
				}
			}
			rt.Barrier(id)
			for p := 0; p < batchTestN; p++ {
				if p == id {
					continue
				}
				for _, w := range rt.Recv(id, p) {
					sum += w
				}
			}
		}
		_ = sum
	}
}

const batchTestN = 9

// runPair executes the same batch natively and serially on the lockstep
// backend and returns both result sets.
func runPair(t *testing.T, cfg Config, batch int, body func(run, id int, rt NodeRuntime)) (native, serial []*Result, nativeErrs, serialErrs []error) {
	t.Helper()
	be, err := New("lockstep")
	if err != nil {
		t.Fatal(err)
	}
	native, nativeErrs = be.(BatchBackend).RunBatch(cfg, batch, body)
	serial, serialErrs = runBatchSerial(be, cfg, batch, body)
	return native, serial, nativeErrs, serialErrs
}

func checkBatchEquivalence(t *testing.T, native, serial []*Result, nativeErrs, serialErrs []error) {
	t.Helper()
	if len(native) != len(serial) || len(nativeErrs) != len(serialErrs) {
		t.Fatalf("batch result shape mismatch: %d/%d results, %d/%d errors",
			len(native), len(serial), len(nativeErrs), len(serialErrs))
	}
	for r := range native {
		if (nativeErrs[r] == nil) != (serialErrs[r] == nil) {
			t.Fatalf("run %d: batched err = %v, serial err = %v", r, nativeErrs[r], serialErrs[r])
		}
		if nativeErrs[r] != nil && nativeErrs[r].Error() != serialErrs[r].Error() {
			t.Fatalf("run %d: batched err %q != serial err %q", r, nativeErrs[r], serialErrs[r])
		}
		if native[r].Stats != serial[r].Stats {
			t.Fatalf("run %d: batched stats %+v != serial stats %+v", r, native[r].Stats, serial[r].Stats)
		}
		if !reflect.DeepEqual(native[r].Transcripts, serial[r].Transcripts) {
			t.Fatalf("run %d: batched transcripts differ from serial", r)
		}
	}
}

func TestRunBatchMatchesSerial(t *testing.T) {
	for _, batch := range []int{2, 3, 7, 16} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			cfg := Config{N: batchTestN, WordsPerPair: 4, RecordTranscript: true}
			body := func(run, id int, rt NodeRuntime) { batchProgram(run, 5+run%3)(id, rt) }
			native, serial, nativeErrs, serialErrs := runPair(t, cfg, batch, body)
			checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
		})
	}
}

// TestRunBatchUnevenLengths pins the per-run early-exit schedule: runs
// end at different rounds (run r executes r+1 rounds), and a finished
// run must stop being charged rounds while the rest of the batch
// continues.
func TestRunBatchUnevenLengths(t *testing.T) {
	cfg := Config{N: 5, WordsPerPair: 2}
	body := func(run, id int, rt NodeRuntime) {
		for r := 0; r <= run; r++ {
			rt.Broadcast(id, r, []uint64{uint64(run)})
			rt.Barrier(id)
		}
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 6, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
	for r, res := range native {
		if res.Stats.Rounds != r+1 {
			t.Fatalf("run %d: got %d rounds, want %d", r, res.Stats.Rounds, r+1)
		}
	}
}

// TestRunBatchViolationIsolation checks the violation contract: a run
// that overflows its budget fails with the canonical lowest-id error
// while every other run of the batch completes untouched.
func TestRunBatchViolationIsolation(t *testing.T) {
	const bad = 2
	cfg := Config{N: 6, WordsPerPair: 1}
	body := func(run, id int, rt NodeRuntime) {
		rt.Broadcast(id, 0, []uint64{uint64(id)})
		if run == bad && id >= 3 {
			// Nodes 3, 4, 5 all overflow in round 1; the run's error must
			// name node 3, the lowest violator.
			rt.Barrier(id)
			rt.Broadcast(id, 1, []uint64{1, 2})
		}
		rt.Barrier(id)
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 5, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
	for r, err := range nativeErrs {
		if r == bad {
			if err == nil {
				t.Fatalf("run %d: want violation, got nil", r)
			}
			want := "clique: node 3 round 1: bandwidth exceeded sending 2 words to 0 (budget 1 words/pair/round)"
			if err.Error() != want {
				t.Fatalf("run %d: got %q, want %q", r, err, want)
			}
		} else if err != nil {
			t.Fatalf("run %d: unexpected error %v", r, err)
		}
	}
}

// TestRunBatchMaxRounds checks that the round limit applies per run.
func TestRunBatchMaxRounds(t *testing.T) {
	cfg := Config{N: 4, MaxRounds: 3}
	body := func(run, id int, rt NodeRuntime) {
		rounds := 2
		if run == 1 {
			rounds = 10
		}
		for r := 0; r < rounds; r++ {
			rt.Broadcast(id, r, []uint64{1})
			rt.Barrier(id)
		}
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 3, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
	if nativeErrs[1] == nil || nativeErrs[0] != nil || nativeErrs[2] != nil {
		t.Fatalf("want only run 1 to hit MaxRounds, got %v", nativeErrs)
	}
}

// TestRunBatchPanicIsolation checks that a node panic fails its own run
// with the canonical error and leaves sibling runs intact.
func TestRunBatchPanicIsolation(t *testing.T) {
	cfg := Config{N: 4, WordsPerPair: 1}
	body := func(run, id int, rt NodeRuntime) {
		rt.Broadcast(id, 0, []uint64{1})
		rt.Barrier(id)
		if run == 0 && id == 2 {
			panic("boom")
		}
		rt.Broadcast(id, 1, []uint64{2})
		rt.Barrier(id)
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 4, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
	if nativeErrs[0] == nil || nativeErrs[0].Error() != "clique: node 2 panicked: boom" {
		t.Fatalf("run 0: got %v", nativeErrs[0])
	}
}

// TestRunBatchBroadcastOnly checks the broadcast-clique law is enforced
// per run in batch mode.
func TestRunBatchBroadcastOnly(t *testing.T) {
	cfg := Config{N: 4, WordsPerPair: 2, BroadcastOnly: true}
	body := func(run, id int, rt NodeRuntime) {
		if run == 1 && id == 1 {
			rt.Send(id, 0, 2, []uint64{7})
		} else {
			rt.Broadcast(id, 0, []uint64{uint64(run)})
		}
		rt.Barrier(id)
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 3, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
	if nativeErrs[1] == nil {
		t.Fatal("run 1: want broadcast-only violation, got nil")
	}
}

// TestRunBatchInvalidConfig checks that a bad configuration fails every
// run with the same validation error a serial Run would return.
func TestRunBatchInvalidConfig(t *testing.T) {
	be, _ := New("lockstep")
	results, errs := RunBatch(be, Config{N: 0}, 3, func(run, id int, rt NodeRuntime) {})
	if len(results) != 3 || len(errs) != 3 {
		t.Fatalf("got %d results / %d errors, want 3 / 3", len(results), len(errs))
	}
	_, wantErr := be.Run(Config{N: 0}, func(id int, rt NodeRuntime) {})
	for r := range errs {
		if results[r] != nil {
			t.Fatalf("run %d: non-nil result for invalid config", r)
		}
		if errs[r] == nil || errs[r].Error() != wantErr.Error() {
			t.Fatalf("run %d: got %v, want %v", r, errs[r], wantErr)
		}
	}
}

// TestRunBatchEmptyAndSingle pins the degenerate shapes: zero runs
// return nothing, one run round-trips through the serial fallback.
func TestRunBatchEmptyAndSingle(t *testing.T) {
	be, _ := New("lockstep")
	if res, errs := RunBatch(be, Config{N: 3}, 0, nil); res != nil || errs != nil {
		t.Fatalf("batch=0: got %v, %v, want nil, nil", res, errs)
	}
	res, errs := RunBatch(be, Config{N: 3}, 1, func(run, id int, rt NodeRuntime) {
		rt.Broadcast(id, 0, []uint64{uint64(run)})
		rt.Barrier(id)
	})
	if len(res) != 1 || errs[0] != nil || res[0].Stats.Rounds != 1 {
		t.Fatalf("batch=1: got %+v, %v", res, errs)
	}
}

// TestRunBatchGoroutineFallback checks the generic serial fallback used
// for backends without native batching.
func TestRunBatchGoroutineFallback(t *testing.T) {
	be, err := New("goroutine")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := be.(BatchBackend); ok {
		t.Fatal("goroutine backend unexpectedly implements BatchBackend; update this test")
	}
	cfg := Config{N: batchTestN, WordsPerPair: 4, RecordTranscript: true}
	body := func(run, id int, rt NodeRuntime) { batchProgram(run, 4)(id, rt) }
	batched, batchedErrs := RunBatch(be, cfg, 3, body)
	serial, serialErrs := runBatchSerial(be, cfg, 3, body)
	checkBatchEquivalence(t, batched, serial, batchedErrs, serialErrs)
}

// TestRunBatchLargeShapeFallsBackToPooledBoxes drives the per-run
// mailbox path (batch total over the shared-arena budget) and checks
// equivalence survives the layout switch.
func TestRunBatchLargeShapeFallsBackToPooledBoxes(t *testing.T) {
	// 2 * 64 * 64 * (1 << 12) words per run: two runs exceed the batch
	// arena budget while each run alone stays dense.
	cfg := Config{N: 64, WordsPerPair: 1 << 12}
	if perRun := int64(cfg.N) * int64(cfg.N) * int64(cfg.WordsPerPair); 2*perRun <= batchArenaThresholdWords {
		t.Fatalf("shape no longer exceeds the batch arena budget; fix the test (perRun=%d)", perRun)
	}
	body := func(run, id int, rt NodeRuntime) {
		rt.Send(id, 0, (id+1)%64, []uint64{uint64(run)})
		rt.Barrier(id)
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 2, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
}

// TestRunBatchSharesArena checks that a dense batch really takes the
// run-major shared-arena layout (all runs on *arenaBox views) rather
// than silently falling back.
func TestRunBatchSharesArena(t *testing.T) {
	const n, wpp = 8, 2
	chunk := n * n * wpp
	boxes, release := newBatchBoxes(4, n, wpp)
	defer release()
	var base *arenaBox
	for r, b := range boxes {
		ab, ok := b.(*arenaBox)
		if !ok {
			t.Fatalf("run %d: got %T, want *arenaBox", r, b)
		}
		if r == 0 {
			base = ab
			continue
		}
		// Run-major: run r's out arena starts exactly 2*r*chunk words
		// after run 0's in one shared backing array.
		want := uintptr(unsafe.Pointer(&base.outW[0])) + uintptr(2*r*chunk)*unsafe.Sizeof(uint64(0))
		if got := uintptr(unsafe.Pointer(&ab.outW[0])); got != want {
			t.Fatalf("run %d: outW not run-major in the shared arena", r)
		}
	}
}

var errSentinel = errors.New("sentinel")

// TestRunBatchFailViolation checks Violation panics (Node.Fail-style)
// carry through per run.
func TestRunBatchFailViolation(t *testing.T) {
	cfg := Config{N: 3}
	body := func(run, id int, rt NodeRuntime) {
		if run == 2 && id == 1 {
			panic(Violation{Err: errSentinel})
		}
		rt.Broadcast(id, 0, []uint64{1})
		rt.Barrier(id)
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 3, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
	if !errors.Is(nativeErrs[2], errSentinel) {
		t.Fatalf("run 2: got %v, want sentinel", nativeErrs[2])
	}
}

// spin is deterministic local work standing in for a node's brute-force
// subproblem: iters rounds of a splitmix-style mix.
func spin(x uint64, iters int) uint64 {
	for i := 0; i < iters; i++ {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x ^= x >> 31
	}
	return x
}

// heterogeneousBatch is a batch whose runs differ in everything the
// scheduler shards over: run 0 is compute-heavy and long, run 1 is light
// and ends after two rounds, and run 2 overflows its budget mid-run at
// nodes 4 and 7 (the error must name node 4) after a round of compute.
func heterogeneousBatch(run, id int, rt NodeRuntime) {
	rounds, work := 6, 2000
	switch run {
	case 1:
		rounds, work = 2, 0
	case 2:
		rounds, work = 4, 500
	}
	acc := uint64(run*100 + id)
	for r := 0; r < rounds; r++ {
		acc = spin(acc, work*(1+id%3))
		words := []uint64{acc}
		if run == 2 && r == 2 && (id == 4 || id == 7) {
			words = append(words, acc)
		}
		rt.Broadcast(id, r, words)
		rt.Barrier(id)
		for p := 0; p < batchTestN; p++ {
			if p != id {
				for _, w := range rt.Recv(id, p) {
					acc ^= w
				}
			}
		}
	}
}

// TestRunBatchHeterogeneousMatchesSerial pins batched ≡ serial for a
// heterogeneous batch at one worker (the inline sweep), two, and three
// workers; with three, the violators 4 and 7 sit in different shards.
func TestRunBatchHeterogeneousMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			cfg := Config{N: batchTestN, WordsPerPair: 1, RecordTranscript: true}
			native, serial, nativeErrs, serialErrs := runPair(t, cfg, 3, heterogeneousBatch)
			checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
			if nativeErrs[0] != nil || nativeErrs[1] != nil {
				t.Fatalf("runs 0 and 1 must succeed, got %v", nativeErrs)
			}
			want := "clique: node 4 round 2: bandwidth exceeded"
			if nativeErrs[2] == nil || !strings.HasPrefix(nativeErrs[2].Error(), want) {
				t.Fatalf("run 2: got %v, want prefix %q", nativeErrs[2], want)
			}
			if native[0].Stats.Rounds != 6 || native[1].Stats.Rounds != 2 {
				t.Fatalf("rounds = %d, %d; want 6, 2", native[0].Stats.Rounds, native[1].Stats.Rounds)
			}
		})
	}
}
