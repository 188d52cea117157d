package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/trace"
)

// commClass maps a collective's op-span name to the comm.* metric its
// self time is billed to.
func commClass(name string) string {
	switch {
	case name == "Route" || name == "RouteDirect":
		return "comm.route_s"
	case strings.HasPrefix(name, "AllToAll"):
		return "comm.alltoall_s"
	case strings.HasPrefix(name, "Broadcast"):
		return "comm.broadcast_s"
	case name == "SendToFew" || name == "SampledBroadcast" || name == "GatherSparse":
		return "comm.sparse_s"
	}
	return "comm.other_s"
}

var commMetrics = []string{"comm.route_s", "comm.alltoall_s", "comm.broadcast_s", "comm.sparse_s", "comm.other_s"}

// tracedRun is what the benchmark keeps of one traced run: the totals
// and node 0's spans. The per-pair heatmap is dropped, so a traced
// registry pass stays small in memory.
type tracedRun struct {
	Label     string       `json:"label"`
	N         int          `json:"n"`
	WPP       int          `json:"words_per_pair"`
	Rounds    int          `json:"rounds"`
	WallNS    int64        `json:"wall_ns"`
	BarrierNS int64        `json:"barrier_ns"`
	Spans     []trace.Span `json:"spans"`
}

// traceSplit attributes a traced pass's time to the engine and comm
// layers:
//
//   - engine.exchange_s is Σ RoundEnd.BarrierWait, which on the lockstep
//     backend is the scheduler's exchange time;
//   - engine.node_s is Σ (round wall − barrier wait): node programs'
//     compute plus coroutine switching;
//   - comm.* is the self time of node 0's op spans (a span's duration
//     minus the nested op spans it covers), by collective family.
type traceSplit struct {
	runs       []tracedRun
	exchangeNS int64
	nodeNS     int64
	commNS     map[string]int64
	ops        int
}

func newTraceSplit() *traceSplit { return &traceSplit{commNS: map[string]int64{}} }

func (t *traceSplit) add(rt *trace.RunTrace) {
	run := tracedRun{Label: rt.Label, N: rt.N, WPP: rt.WordsPerPair,
		Rounds: len(rt.Rounds), WallNS: rt.WallNS, Spans: rt.Spans}
	for _, r := range rt.Rounds {
		run.BarrierNS += r.BarrierNS
		t.exchangeNS += r.BarrierNS
		t.nodeNS += r.WallNS - r.BarrierNS
	}
	t.runs = append(t.runs, run)

	var ops []trace.Span
	for _, s := range rt.Spans {
		if s.Kind == trace.KindOp {
			ops = append(ops, s)
		}
	}
	t.ops += len(ops)
	for i, self := range selfTimes(ops) {
		t.commNS[commClass(ops[i].Name)] += self
	}
}

// selfTimes returns each span's duration minus the part of it covered
// by the spans directly nested in it. Node 0 runs one program, so its
// op spans nest properly: a span either contains another or is
// disjoint from it. spans is reordered (by start, outermost first).
func selfTimes(spans []trace.Span) []int64 {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].DurNS > spans[j].DurNS
	})
	self := make([]int64, len(spans))
	var open []int // indices of the spans enclosing the current one
	for i, s := range spans {
		self[i] = s.DurNS
		for len(open) > 0 {
			p := spans[open[len(open)-1]]
			if s.StartNS < p.StartNS+p.DurNS {
				break
			}
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			p := open[len(open)-1]
			covered := min(s.StartNS+s.DurNS, spans[p].StartNS+spans[p].DurNS) - s.StartNS
			self[p] -= covered
		}
		open = append(open, i)
	}
	return self
}

// metrics writes the split into m.
func (t *traceSplit) metrics(m map[string]float64) {
	m["engine.exchange_s"] = float64(t.exchangeNS) / 1e9
	m["engine.node_s"] = float64(t.nodeNS) / 1e9
	for _, name := range commMetrics {
		m[name] = float64(t.commNS[name]) / 1e9
	}
	m["comm.ops"] = float64(t.ops)
}

// write saves the kept runs as JSON under .bench_build/traces once the
// traced pass has ended, and returns the file's path.
func (t *traceSplit) write(workload string, seed uint64) (string, error) {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(map[string]any{"schema": "perfbench-trace/v1", "runs": t.runs})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
