package engine

import (
	"fmt"
	"testing"
)

// BenchmarkBackendExchange is the acceptance microbenchmark for the
// lockstep engine: every node broadcasts a word and reads a rotating
// window of 8 peers each round — the canonical gossip round shape of the
// algorithm suite (leader reads, neighbor probes), with the network
// itself at the densest traffic the model allows. Run for a few hundred
// rounds, the horizon of an APSP-class algorithm, so the steady-state
// exchange path dominates setup. Compare goroutine vs lockstep at the
// same n; the reported rounds/sec is the engine's simulated-round
// throughput. The lockstep engine delivers lazily (a message costs read
// work only if its receiver looks at it), which is where most of its
// headroom over the transpose-everything goroutine engine comes from.
func BenchmarkBackendExchange(b *testing.B) {
	benchExchange(b, 8)
}

// BenchmarkBackendExchangeFullRead is the lockstep engine's worst case:
// every node reads every peer's message every round, so lazy delivery
// buys nothing and the gap narrows to allocation and scheduling wins.
func BenchmarkBackendExchangeFullRead(b *testing.B) {
	benchExchange(b, -1)
}

// benchExchange broadcasts all-to-all and reads `reads` peers per node
// per round (-1 = all peers, via RecvAll).
func benchExchange(b *testing.B, reads int) {
	const roundsPerRun = 256
	for _, name := range Names() {
		be, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var sink uint64
					res, err := be.Run(Config{N: n, WordsPerPair: 1}, func(id int, rt NodeRuntime) {
						word := make([]uint64, 1)
						var sum uint64
						for r := 0; r < roundsPerRun; r++ {
							word[0] = uint64(id + r)
							rt.Broadcast(id, r, word)
							rt.Barrier(id)
							if reads < 0 {
								for p, w := range rt.RecvAll(id) {
									if p != id {
										sum += w[0]
									}
								}
							} else {
								for j := 1; j <= reads; j++ {
									p := (id + r + j) % n
									if p != id {
										sum += rt.Recv(id, p)[0]
									}
								}
							}
						}
						if id == 0 {
							sink = sum
						}
					})
					_ = sink
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Rounds != roundsPerRun {
						b.Fatalf("rounds = %d", res.Stats.Rounds)
					}
				}
				b.ReportMetric(float64(roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}

// BenchmarkBackendExchangeBatched is the canonical exchange rewritten
// on the zero-copy paths (BroadcastBuf + RecvInto): the allocs/op gap
// against BenchmarkBackendExchange is the benefit the batched engine
// API buys the collective layer.
func BenchmarkBackendExchangeBatched(b *testing.B) {
	const roundsPerRun = 256
	for _, name := range Names() {
		be, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var sink uint64
					res, err := be.Run(Config{N: n, WordsPerPair: 1}, func(id int, rt NodeRuntime) {
						var sum uint64
						var scratch []uint64
						for r := 0; r < roundsPerRun; r++ {
							buf := rt.BroadcastBuf(id, r, 1)
							buf[0] = uint64(id + r)
							rt.Barrier(id)
							for j := 1; j <= 8; j++ {
								p := (id + r + j) % n
								if p != id {
									scratch = rt.RecvInto(id, p, scratch[:0])
									sum += scratch[0]
								}
							}
						}
						if id == 0 {
							sink = sum
						}
					})
					_ = sink
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Rounds != roundsPerRun {
						b.Fatalf("rounds = %d", res.Stats.Rounds)
					}
				}
				b.ReportMetric(float64(roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}

// BenchmarkBackendTranscript measures transcript-recording runs: the
// full-traffic exchange with RecordTranscript on, where recordRound's
// copy strategy (one shared copy per delivered pair, nil rows stay nil)
// dominates the per-round overhead.
func BenchmarkBackendTranscript(b *testing.B) {
	const roundsPerRun = 32
	for _, name := range Names() {
		be, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{64} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := be.Run(Config{N: n, WordsPerPair: 1, RecordTranscript: true},
						func(id int, rt NodeRuntime) {
							word := make([]uint64, 1)
							for r := 0; r < roundsPerRun; r++ {
								// Half the nodes stay silent so the empty-row
								// fast path is exercised alongside the copies.
								if id%2 == 0 {
									word[0] = uint64(id + r)
									rt.Broadcast(id, r, word)
								}
								rt.Barrier(id)
							}
						})
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Rounds != roundsPerRun {
						b.Fatalf("rounds = %d", res.Stats.Rounds)
					}
				}
				b.ReportMetric(float64(roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}

// BenchmarkBackendBarrier isolates the scheduling cost: nodes tick with
// no traffic at all, so the barrier/resume machinery is everything.
func BenchmarkBackendBarrier(b *testing.B) {
	const roundsPerRun = 64
	for _, name := range Names() {
		be, _ := New(name)
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, err := be.Run(Config{N: n}, func(id int, rt NodeRuntime) {
						for r := 0; r < roundsPerRun; r++ {
							rt.Barrier(id)
						}
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}

// BenchmarkRunBatch measures the cross-run batched scheduler against a
// serial loop over the same seed sweep, at the small-message shape
// batching targets (per-round dispatch dominates an n=8 exchange).
// rounds/sec is aggregate simulated rounds across the whole sweep; the
// batched/serial ratio is the live form of the committed batched over
// batched-serial probe ratio.
func BenchmarkRunBatch(b *testing.B) {
	const (
		n            = 8
		roundsPerRun = 256
		batch        = 8
	)
	body := func(id int, rt NodeRuntime) {
		for r := 0; r < roundsPerRun; r++ {
			buf := rt.BroadcastBuf(id, r, 1)
			buf[0] = uint64(id + r)
			rt.Barrier(id)
		}
	}
	cfg := Config{N: n, WordsPerPair: 1}
	be, err := New("lockstep")
	if err != nil {
		b.Fatal(err)
	}
	check := func(b *testing.B, res *Result, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rounds != roundsPerRun {
			b.Fatalf("rounds = %d", res.Stats.Rounds)
		}
	}
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, errs := RunBatch(be, cfg, batch, func(run, id int, rt NodeRuntime) { body(id, rt) })
			for r := range results {
				check(b, results[r], errs[r])
			}
		}
		b.ReportMetric(float64(batch*roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch; r++ {
				res, err := be.Run(cfg, body)
				check(b, res, err)
			}
		}
		b.ReportMetric(float64(batch*roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
	})
}

// BenchmarkRunBatchHeterogeneous is the fig1 shape in miniature: a
// batch of two runs at one (n, wpp) where one run's nodes do real local
// work every round and the other's barely any, against a serial loop
// over the same two programs. With per-run node sharding every worker
// carries a share of the heavy run, so batched should track serial;
// sharding the batch by whole runs would leave the heavy run on one
// core and show up here as batched falling behind serial.
func BenchmarkRunBatchHeterogeneous(b *testing.B) {
	const (
		n      = 32
		rounds = 16
		batch  = 2
	)
	body := func(run, id int, rt NodeRuntime) {
		work := 16000
		if run == 1 {
			work = 10
		}
		acc := uint64(id)
		for r := 0; r < rounds; r++ {
			acc = spin(acc, work)
			buf := rt.BroadcastBuf(id, r, 1)
			buf[0] = acc
			rt.Barrier(id)
		}
	}
	cfg := Config{N: n, WordsPerPair: 1}
	be, err := New("lockstep")
	if err != nil {
		b.Fatal(err)
	}
	check := func(b *testing.B, res *Result, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rounds != rounds {
			b.Fatalf("rounds = %d", res.Stats.Rounds)
		}
	}
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, errs := RunBatch(be, cfg, batch, body)
			for r := range results {
				check(b, results[r], errs[r])
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch; r++ {
				res, err := be.Run(cfg, func(id int, rt NodeRuntime) { body(r, id, rt) })
				check(b, res, err)
			}
		}
	})
}
