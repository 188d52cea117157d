package comm

import (
	"testing"

	"repro/internal/clique"
)

// BenchmarkRoute measures one Route call per node at n=64 on the
// lockstep backend, with APSP's packet shape (two-word payloads, n
// packets per node): uniform destinations, and skewed ones where every
// node floods its successor. Run it with -benchmem. Route itself
// allocates a few slices per node per phase; nearly all of the ~20k
// allocs/op are AllToAll's per-sender receive streams growing round by
// round. Route's per-packet records, growing queues and per-payload
// copies once added about 20k more (40k allocs/op), so their return
// shows up as allocs/op doubling.
func BenchmarkRoute(b *testing.B) {
	const (
		n       = 64
		perNode = n
		w       = 2
	)
	for _, shape := range []struct {
		name string
		dst  func(v, i int) int
	}{
		{"uniform", func(v, i int) int { return (v*7 + i*13 + 1) % n }},
		{"skewed", func(v, i int) int { return (v + 1) % n }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			instance := make([][]Packet, n)
			for v := range instance {
				for i := 0; i < perNode; i++ {
					instance[v] = append(instance[v], Packet{Dst: shape.dst(v, i), Payload: []uint64{uint64(v), uint64(i)}})
				}
			}
			cfg := clique.Config{N: n, WordsPerPair: 1, Backend: "lockstep"}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := clique.Run(cfg, func(nd *clique.Node) {
					if got := Route(nd, instance[nd.ID()], w, 1); len(got) == 0 && nd.ID() == 1 {
						nd.Fail("comm: node 1 received nothing")
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			}
		})
	}
}
