package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	// serveN is the clique size of every served request.
	serveN = 64
	// serveCache is cliqued's default memory-cache size.
	serveCache = 256
	// fifoMargin keeps the client's model of the server's FIFO safe
	// against in-flight reordering: a request is sent as a memory hit
	// only if it completed within the last serveCache−fifoMargin
	// FIFO insertions, and as a ledger hit only if it completed more
	// than serveCache+fifoMargin insertions ago. At most `clients`
	// requests are ever in flight, far below the margin.
	fifoMargin = 16
	// prepopulate is how many cold requests set-up sends, so that the
	// first prepopulate−serveCache−fifoMargin of them sit in the ledger
	// only when the timed mix starts.
	prepopulate = 384
	// minTierSamples is the per-tier sample count the timed mix runs
	// to, so each tier's p99 has at least ten samples beyond it.
	minTierSamples = 1000
	// serveEpoch is how long the closed loop runs between two
	// calibration samples.
	serveEpoch = 500 * time.Millisecond
)

// Tiers of the serve mix.
const (
	tierCold   = iota // a new seed: queue, exp, engine, fsync'd ledger append
	tierMem           // a repeat still in the memory FIFO
	tierLedger        // a repeat already evicted from the FIFO: ledger Get
	numTiers
)

var tierNames = [numTiers]string{"cold", "mem", "ledger"}

// serveReq is one ad-hoc run request of the mix.
type serveReq struct {
	alg  workload.Algorithm
	seed uint64
	hash string
}

func newServeReq(name string, seed uint64) (serveReq, error) {
	alg, ok := workload.Get(name)
	if !ok {
		return serveReq{}, fmt.Errorf("unknown algorithm %q", name)
	}
	// The handler resolves the catalogue's word budget and the default
	// backend before hashing; so does the benchmark.
	req, err := exp.Request{Kind: exp.KindAdhoc, Algorithm: name, N: serveN,
		WordsPerPair: alg.WPP, Seed: seed, Backend: backend}.Canonical()
	if err != nil {
		return serveReq{}, err
	}
	return serveReq{alg: alg, seed: seed, hash: req.Hash()}, nil
}

func (r serveReq) body() string {
	return fmt.Sprintf(`{"algorithm":%q,"n":%d,"seed":%d}`, r.alg.Name, serveN, r.seed)
}

// reference renders the envelope exp.RunExperiment produces for the
// request: the same one-row table and metrics cliqued's ad-hoc body
// emits, marshalled without timing.
func (r serveReq) reference() ([]byte, exp.Timing, error) {
	wpp := r.alg.WPP
	e := exp.Experiment{
		ID:       "adhoc:" + r.alg.Name,
		Artefact: "ad-hoc",
		Title:    fmt.Sprintf("%s (n=%d, seed=%d)", r.alg.Title, serveN, r.seed),
		Run: func(c *exp.Ctx) {
			t := c.Table("", "n", "wpp", "rounds", "words", "bits", "max pair words")
			res, err := c.Run(clique.Config{N: serveN, WordsPerPair: wpp}, r.alg.Make(serveN, r.seed))
			if err != nil {
				c.Failf("%v", err)
			}
			t.Row(exp.Int(serveN), exp.Int(wpp), exp.Int(res.Stats.Rounds),
				exp.Int64(res.Stats.WordsSent), exp.Int64(res.Stats.BitsSent),
				exp.Int(res.Stats.MaxPairWords))
			c.Metric("rounds", float64(res.Stats.Rounds), "rounds")
			c.Metric("words", float64(res.Stats.WordsSent), "words")
		},
	}
	opts := exp.Options{Backend: backend}
	res, tim, err := exp.RunExperiment(context.Background(), e, opts)
	if err != nil {
		return nil, tim, err
	}
	var buf bytes.Buffer
	err = exp.NewReport(backend, opts, []*exp.Result{res}, exp.Timing{}, false).WriteJSON(&buf)
	return buf.Bytes(), tim, err
}

// serveInst is one in-process cliqued: a serve.Server with a ledger in
// a scratch directory, behind a loopback listener.
type serveInst struct {
	dir    string
	led    *ledger.Ledger
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startServe(clients int) (*serveInst, error) {
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	led, _, err := ledger.Open(filepath.Join(dir, "results.ledger"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		led.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &serveInst{dir: dir, led: led, served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	s.srv = serve.New(serve.Config{Workers: runtime.GOMAXPROCS(0), CacheEntries: serveCache,
		BatchWidth: 1, DefaultBackend: backend, Ledger: led})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	return s, nil
}

// stop shuts the HTTP server, drains the service and closes the ledger.
// The scratch directory is left for the ledger probes; remove removes it.
func (s *serveInst) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	if cerr := s.led.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *serveInst) remove() { os.RemoveAll(s.dir) }

// post sends one request and returns the status, body and the hash the
// server reports.
func (s *serveInst) post(r serveReq) (int, []byte, string, error) {
	resp, err := s.client.Post(s.url+"/v1/run", "application/json", strings.NewReader(r.body()))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("X-Request-Hash"), err
}

// metricsSnapshot reads /metrics.
func (s *serveInst) metricsSnapshot() (map[string]json.RawMessage, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return m, nil
}

func counter(m map[string]json.RawMessage, name string) int64 {
	v, _ := strconv.ParseInt(string(m[name]), 10, 64)
	return v
}

// histP50 estimates the median of the ad-hoc jobs observed between two
// snapshots of one of serve's log₂ latency histograms, interpolating
// linearly inside the bucket the median falls in. Result in ms.
func histP50(before, after map[string]json.RawMessage, name string) float64 {
	type hist struct {
		Buckets map[string]int64 `json:"buckets"`
	}
	read := func(m map[string]json.RawMessage) map[uint64]int64 {
		var vec map[string]hist
		_ = json.Unmarshal(m[name], &vec) // a missing family reads as empty
		out := map[uint64]int64{}
		for label, h := range vec {
			if !strings.HasPrefix(label, "adhoc:") {
				continue
			}
			for ub, n := range h.Buckets {
				if v, err := strconv.ParseUint(ub, 10, 64); err == nil {
					out[v] += n
				}
			}
		}
		return out
	}
	b, a := read(before), read(after)
	var ubs []uint64
	var total int64
	for ub, n := range a {
		if d := n - b[ub]; d > 0 {
			ubs = append(ubs, ub)
			total += d
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(ubs, func(i, j int) bool { return ubs[i] < ubs[j] })
	half := float64(total) / 2
	var seen float64
	for _, ub := range ubs {
		d := float64(a[ub] - b[ub])
		if seen+d >= half {
			lo := float64(ub / 2)
			return (lo + (float64(ub)-lo)*(half-seen)/d) / 1e6
		}
		seen += d
	}
	return float64(ubs[len(ubs)-1]) / 1e6
}

// mix generates the closed loop's requests and keeps the client-side
// model of the server's memory FIFO that decides which repeats are
// memory hits and which are ledger hits.
type mix struct {
	mu       sync.Mutex
	rng      *rand.Rand
	seedBase uint64
	cold     int // cold requests drawn so far
	order    []int
	// FIFO model: seq counts completions that entered the FIFO (cold
	// runs and ledger hits); ring holds the last serveCache−fifoMargin
	// of them; aged queues completions in order, to be served from the
	// ledger once old enough.
	seq      int64
	last     map[string]int64
	ring     []serveReq
	aged     []agedReq
	reqs     map[string]serveReq
	deadline time.Time
	counts   [numTiers]int
	stopped  bool
}

// done reports whether the mix has stopped.
func (m *mix) done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopped
}

type agedReq struct {
	r   serveReq
	seq int64
}

func newMix(seed uint64) *mix {
	return &mix{
		rng:      rand.New(rand.NewPCG(seed, 0x5e17e)),
		seedBase: splitmix64(seed^0x5e17e) >> 24 << 20,
		last:     map[string]int64{},
		ring:     make([]serveReq, serveCache-fifoMargin),
		reqs:     map[string]serveReq{},
	}
}

// coldReq is the mix's i-th cold request: a seed never used before,
// cycling through the sweep's light algorithms.
func (m *mix) coldReq(i int) (serveReq, error) {
	return newServeReq(sweepAlgorithms[i%len(sweepAlgorithms)], m.seedBase+uint64(i))
}

// nextCold draws the next cold request; the caller holds m.mu.
func (m *mix) nextCold() (serveReq, error) {
	r, err := m.coldReq(m.cold)
	m.cold++
	if err == nil {
		m.reqs[r.hash] = r
	}
	return r, err
}

// prepop draws set-up's cold requests, false once all are drawn.
func (m *mix) prepop() (serveReq, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cold == prepopulate {
		return serveReq{}, false, nil
	}
	r, err := m.nextCold()
	return r, true, err
}

// next picks the next request of the timed mix: the tiers in a seeded
// interleaving, one of each per block of three. The equal shares are an
// assumption (nothing in the repository gives cliqued's repeat rate),
// and the mix's p50 and p99 depend on them; README.md says more. It
// returns false once
// the mix has run for its time and every tier has its samples.
func (m *mix) next() (serveReq, int, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return serveReq{}, 0, false, nil
	}
	if time.Now().After(m.deadline) {
		done := true
		for _, c := range m.counts {
			done = done && c >= minTierSamples
		}
		if done {
			m.stopped = true
			return serveReq{}, 0, false, nil
		}
	}
	if len(m.order) == 0 {
		m.order = []int{tierCold, tierMem, tierLedger}
		m.rng.Shuffle(len(m.order), func(i, j int) { m.order[i], m.order[j] = m.order[j], m.order[i] })
	}
	tier := m.order[0]
	m.order = m.order[1:]
	switch tier {
	case tierMem:
		if filled := min(m.seq, int64(len(m.ring))); filled > 0 {
			m.counts[tierMem]++
			return m.ring[(m.seq-1-m.rng.Int64N(filled))%int64(len(m.ring))], tierMem, true, nil
		}
	case tierLedger:
		for len(m.aged) > 0 && m.aged[0].seq <= m.seq-serveCache-fifoMargin {
			a := m.aged[0]
			m.aged = m.aged[1:]
			if m.last[a.r.hash] == a.seq { // not re-entered the FIFO since
				m.counts[tierLedger]++
				return a.r, tierLedger, true, nil
			}
		}
	}
	// Cold, or no repeat is eligible yet for the drawn tier.
	r, err := m.nextCold()
	m.counts[tierCold]++
	return r, tierCold, true, err
}

// completed records a response: cold runs and ledger hits enter the
// server's FIFO.
func (m *mix) completed(r serveReq, tier int) {
	if tier == tierMem {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	m.last[r.hash] = m.seq
	m.ring[(m.seq-1)%int64(len(m.ring))] = r
	m.aged = append(m.aged, agedReq{r, m.seq})
}

// serveState is what set-up leaves for the timed mix.
type serveState struct {
	inst   *serveInst
	mix    *mix
	checks *bodyCheck
}

// serveSetup boots a server and sends the prepopulation requests from
// `clients` connections.
func serveSetup(seed uint64, clients int) (*serveState, error) {
	inst, err := startServe(clients)
	if err != nil {
		return nil, err
	}
	st := &serveState{inst: inst, mix: newMix(seed), checks: newBodyCheck()}
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for {
				r, ok, err := st.mix.prepop()
				if !ok || err != nil {
					errc <- err
					return
				}
				status, body, _, err := inst.post(r)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("prepopulation request answered %d", status)
				}
				if err != nil {
					errc <- err
					return
				}
				st.checks.add(r.hash, body)
				st.mix.completed(r, tierCold)
			}
		}()
	}
	for c := 0; c < clients; c++ {
		if e := <-errc; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		inst.stop()
		inst.remove()
		return nil, err
	}
	return st, nil
}

// probeBodies is how many served bodies bodyCheck keeps whole, for the
// ledger probes.
const probeBodies = 256

// bodyCheck holds the digest of the first body served per request hash,
// and counts responses that differ from it. It keeps digests rather
// than bodies so that the benchmark's own heap does not grow with the
// number of requests the program serves, which would make
// peak_heap_mb worse the faster the program is. The first probeBodies
// bodies are kept whole.
type bodyCheck struct {
	mu     sync.Mutex
	first  map[string][sha256.Size]byte
	ops    map[string]int
	bodies map[string][]byte
	differ int
}

func newBodyCheck() *bodyCheck {
	return &bodyCheck{first: map[string][sha256.Size]byte{}, ops: map[string]int{}, bodies: map[string][]byte{}}
}

func (b *bodyCheck) add(hash string, body []byte) {
	sum := sha256.Sum256(body)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops[hash]++
	if prev, ok := b.first[hash]; !ok {
		b.first[hash] = sum
		if len(b.bodies) < probeBodies {
			b.bodies[hash] = body
		}
	} else if prev != sum {
		b.differ++
	}
}

// runServe drives the closed-loop mix for the given number of seconds
// (longer if a tier has fewer than minTierSamples samples by then)
// from nproc client connections.
func runServe(opts options) (*outcome, error) {
	o, err := newOutcome()
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	st, probe, err := setupMedian(o, 3, func() (*serveState, error) { return serveSetup(opts.seed, clients) },
		func(s *serveState) {
			s.inst.stop()
			s.inst.remove()
		})
	if err != nil {
		return nil, err
	}
	inst := st.inst
	defer inst.remove()

	before, err := inst.metricsSnapshot()
	if err != nil {
		inst.stop()
		return nil, err
	}
	checks := st.checks
	var failMu sync.Mutex
	var failures []string
	failed := 0
	var perturbOnce sync.Once

	counters0 := readCounters()
	heap := startHeapSampler(time.Second)
	start := time.Now()
	st.mix.deadline = start.Add(time.Duration(opts.seconds * float64(time.Second)))
	// The closed loop runs in epochs of serveEpoch. Between two epochs
	// the clients stop, the requests in flight complete, and the machine
	// is probed while the server is idle.
	type sample struct {
		tier int
		d    time.Duration
	}
	// An epoch: the probe before it, its rate and its samples.
	type epochRun struct {
		at      int
		rate    float64
		samples []sample
	}
	var (
		epochs []epochRun
		active time.Duration
		mixErr error
	)
	for mixErr == nil && !st.mix.done() {
		var epoch []sample
		record := func(tier int, d time.Duration) {
			failMu.Lock()
			epoch = append(epoch, sample{tier, d})
			failMu.Unlock()
		}
		epochStart := time.Now()
		epochEnd := epochStart.Add(serveEpoch)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(epochEnd) {
					r, tier, ok, err := st.mix.next()
					if err != nil {
						failMu.Lock()
						mixErr = err
						failMu.Unlock()
					}
					if !ok || err != nil {
						return
					}
					t0 := time.Now()
					status, body, hash, err := inst.post(r)
					d := time.Since(t0)
					if err == nil && (status != http.StatusOK || hash != r.hash) {
						err = fmt.Errorf("status %d, hash %.12s (want %.12s)", status, hash, r.hash)
					}
					if err != nil {
						// A failed request misses every latency limit.
						record(tier, time.Since(start)+time.Hour)
						failMu.Lock()
						failed++
						failures = append(failures, fmt.Sprintf("%s request: %v", tierNames[tier], err))
						failMu.Unlock()
						continue
					}
					record(tier, d)
					if opts.perturb == "serve-body" && tier == tierMem {
						perturbOnce.Do(func() {
							body = append([]byte(nil), body...)
							body[len(body)/2] ^= 1
						})
					}
					checks.add(r.hash, body)
					st.mix.completed(r, tier)
				}
			}()
		}
		wg.Wait()
		epochWall := time.Since(epochStart)
		active += epochWall
		if len(epoch) > 0 {
			epochs = append(epochs, epochRun{probe, float64(len(epoch)) / epochWall.Seconds(), epoch})
		}
		probe = o.cal.probe()
	}
	// tiers are the latencies as measured; all are the same in
	// reference seconds.
	var tiers [numTiers][]float64
	var all, rawAll, epochRates, rawRates []float64
	for _, e := range epochs {
		slow := o.cal.around(e.at)
		for _, x := range e.samples {
			tiers[x.tier] = append(tiers[x.tier], msOf(x.d))
			all = append(all, msOf(x.d)/slow)
			rawAll = append(rawAll, msOf(x.d))
		}
		epochRates = append(epochRates, e.rate*slow)
		rawRates = append(rawRates, e.rate)
	}
	wall := time.Since(start)
	o.e2e["peak_heap_mb"] = heap.peakMB()
	counters1 := readCounters()

	after, err := inst.metricsSnapshot()
	if stopErr := inst.stop(); err == nil {
		err = stopErr
	}
	if err == nil {
		err = mixErr
	}
	if err != nil {
		return nil, err
	}

	requests := len(all)
	// Prepopulation responses are checked too, so they count as attempted.
	o.attempted = requests + prepopulate
	if failed > 0 {
		o.fail(failed, "%d requests failed, first: %s", failed, failures[0])
	}
	if checks.differ > 0 {
		o.fail(checks.differ, "%d responses differ from the first response for their request hash", checks.differ)
	}

	// Tier counts must reconcile with the server's own counters.
	d := func(name string) int64 { return counter(after, name) - counter(before, name) }
	served := [numTiers]int64{d("jobs_done"), d("cache_hits"), d("ledger_hits")}
	if opts.perturb == "serve-tiers" {
		served[tierMem]++
	}
	for t := range served {
		if want := int64(len(tiers[t])); served[t] != want {
			o.fail(int(abs(served[t]-want)), "tier %s: client sent %d, /metrics counted %d", tierNames[t], want, served[t])
		}
	}

	refMismatch, simShare, err := serveReferences(st.mix, checks, opts.perturb == "serve-ref")
	if err != nil {
		return nil, err
	}
	if refMismatch > 0 {
		o.fail(refMismatch, "%d responses differ from exp.RunExperiment's envelope for their request", refMismatch)
	}

	// The median epoch keeps a burst of machine noise from moving the
	// whole run's figure.
	o.e2e["ops_per_s"], o.raw["ops_per_s"] = median(epochRates), median(rawRates)
	o.e2e["p50_ms"], o.raw["p50_ms"] = median(all), median(rawAll)
	o.e2e["tail_ms"], o.raw["tail_ms"] = quantile(all, 0.99), quantile(rawAll, 0.99)
	o.notef("%d requests in %d epochs, %.3f s active of %.3f s, from %d clients: cold %d, mem %d, ledger %d (tail_ms is p99)",
		requests, len(epochRates), active.Seconds(), wall.Seconds(), clients, len(tiers[tierCold]), len(tiers[tierMem]), len(tiers[tierLedger]))

	m := o.layer
	m["serve.req_per_s"] = o.raw["ops_per_s"]
	for t, name := range tierNames {
		m["serve."+name+"_p50_ms"] = median(tiers[t])
		m["serve."+name+"_p99_ms"] = quantile(tiers[t], 0.99)
	}
	m["serve.queue_wait_p50_ms"] = histP50(before, after, "queue_wait_ns")
	m["serve.run_wall_p50_ms"] = histP50(before, after, "run_wall_ns")
	m["serve.cache_hit_ratio"] = ratio(d("cache_hits"), d("cache_misses"))
	m["serve.jobs_shed"] = float64(d("jobs_shed"))
	m["serve.jobs_failed"] = float64(d("jobs_failed"))
	m["ledger.errors"] = float64(d("ledger_errors"))
	m["exp.sim_share"] = simShare
	layerCounters(counters0, counters1, m)
	m["engine.allocs"] /= float64(requests)
	m["engine.alloc_mb"] /= float64(requests)
	if !opts.trace {
		return o, nil
	}
	if err := ledgerProbes(o, inst, checks); err != nil {
		return nil, err
	}
	serveTraced(o, st.mix, opts.seed)
	return o, nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// serveReferences computes exp.RunExperiment's envelope for every
// request hash served, on GOMAXPROCS workers, and counts the responses
// whose body differs from it. It also returns Σ SimWall ÷ Σ wall of
// those executions: the share of an ad-hoc job spent simulating.
func serveReferences(m *mix, checks *bodyCheck, perturb bool) (int, float64, error) {
	var (
		mu        sync.Mutex
		mismatch  int
		firstErr  error
		sim, wall time.Duration
		wg        sync.WaitGroup
	)
	var perturbed string
	if perturb {
		for h := range checks.first {
			perturbed = h
			break
		}
	}
	jobs := make(chan string)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range jobs {
				t0 := time.Now()
				ref, tim, err := m.reqs[h].reference()
				if h == perturbed && err == nil {
					ref[len(ref)/2] ^= 1
				}
				d := time.Since(t0)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil && sha256.Sum256(ref) != checks.first[h] {
					mismatch += checks.ops[h]
				}
				sim += tim.SimWall
				wall += d
				mu.Unlock()
			}
		}()
	}
	for h := range checks.first {
		jobs <- h
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	return mismatch, sim.Seconds() / wall.Seconds(), nil
}

// ledgerProbes calls the ledger directly: fsync'd Append and Get on a
// scratch ledger with envelopes of the size the mix served, and Open of
// the server's own ledger at the record count the mix ended with.
func ledgerProbes(o *outcome, inst *serveInst, checks *bodyCheck) error {
	path := filepath.Join(inst.dir, "results.ledger")
	var opens []float64
	var records int64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		l, st, err := ledger.Open(path)
		opens = append(opens, msOf(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("reopening the serve ledger: %w", err)
		}
		records = st.Records
		if err := l.Close(); err != nil {
			return err
		}
	}
	o.layer["ledger.open_ms"] = median(opens)

	probe, _, err := ledger.Open(filepath.Join(inst.dir, "probe.ledger"))
	if err != nil {
		return err
	}
	defer probe.Close()
	var keys []string
	var appends, gets []float64
	for h, body := range checks.bodies {
		t0 := time.Now()
		if err := probe.Append(h, body); err != nil {
			return fmt.Errorf("ledger probe append: %w", err)
		}
		appends = append(appends, float64(time.Since(t0).Nanoseconds())/1e3)
		keys = append(keys, h)
	}
	for i := 0; i < 4096; i++ {
		k := keys[i%len(keys)]
		t0 := time.Now()
		got, err := probe.Get(k)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		o.attempted++
		if err != nil || !bytes.Equal(got, checks.bodies[k]) {
			o.fail(1, "ledger probe: Get(%.12s) did not return the appended bytes (%v)", k, err)
		}
	}
	o.layer["ledger.append_p50_us"] = median(appends)
	o.layer["ledger.get_p50_us"] = median(gets)
	o.notef("ledger probes: open at %d records, %d appends, %d gets", records, len(appends), len(gets))
	return nil
}

// serveTraced runs the programs of the first cold requests of the mix
// directly through clique.Run, untraced and then traced, to attribute
// cold-tier simulation time to the engine and comm layers. Served
// requests themselves are not traced: a traced request hashes to its
// own cache slot and would change the mix.
func serveTraced(o *outcome, m *mix, seed uint64) {
	reqs := make([]serveReq, 0, 128)
	for len(reqs) < cap(reqs) {
		r, err := m.coldReq(len(reqs))
		if err != nil {
			o.fail(1, "traced pass: %v", err)
			return
		}
		reqs = append(reqs, r)
	}
	progs := make([]clique.NodeFunc, len(reqs))
	var makeTime time.Duration
	for i, r := range reqs {
		t0 := time.Now()
		progs[i] = r.alg.Make(serveN, r.seed)
		makeTime += time.Since(t0)
	}
	cfg := func(r serveReq) clique.Config {
		return clique.Config{N: serveN, WordsPerPair: r.alg.WPP, Backend: backend}
	}
	var untraced []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for i, r := range reqs {
			if _, err := clique.Run(cfg(r), progs[i]); err != nil {
				o.fail(1, "untraced %s seed=%d: %v", r.alg.Name, r.seed, err)
			}
		}
		untraced = append(untraced, time.Since(t0).Seconds())
	}

	split := newTraceSplit()
	var rounds, words int64
	t0 := time.Now()
	for i, r := range reqs {
		c := cfg(r)
		col := trace.NewCollector(fmt.Sprintf("%s n=%d seed=%d", r.alg.Name, serveN, r.seed), serveN, c.WordsPerPair)
		c.Tracer = col
		res, err := clique.Run(c, progs[i])
		o.attempted++
		if err != nil {
			o.fail(1, "traced %s seed=%d: %v", r.alg.Name, r.seed, err)
			continue
		}
		rounds += int64(res.Stats.Rounds)
		words += res.Stats.WordsSent
		split.add(col.Finish())
	}
	wall := time.Since(t0)
	split.metrics(o.layer)
	o.layer["engine.rounds"] = float64(rounds)
	o.layer["clique.words"] = float64(words)
	o.layer["workload.make_s"] = makeTime.Seconds()
	o.layer["trace.overhead_frac"] = wall.Seconds()/median(untraced) - 1
	if path, err := split.write("serve", seed); err != nil {
		o.fail(1, "writing spans: %v", err)
	} else {
		o.notef("traced pass: %.3f s over %d cold-request programs, spans in %s", wall.Seconds(), len(reqs), path)
	}
}
