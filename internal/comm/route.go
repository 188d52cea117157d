package comm

import (
	"repro/internal/clique"
	"repro/internal/trace"
)

// Packet is one routed message: a fixed-width payload bound for Dst.
// Within a single Route call all packets must have the same payload
// width, which keeps the wire format self-delimiting.
type Packet struct {
	Src     int
	Dst     int
	Payload []uint64
}

// splitmix64 is the fixed hash used to pick routing intermediates. It is
// part of the (uniform, deterministic) algorithm, playing the role of
// Lenzen's explicit balancing computation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Route delivers an arbitrary multiset of fixed-width packets and returns
// the packets addressed to this node, with Src filled in. All nodes must
// call Route together (it is a global operation), and every packet in the
// instance must have payload width w. Cost: O((s + r) * (w + 2) /
// wordsPerPair) rounds plus a constant, where s*n and r*n bound per-node
// send and receive counts — the Lenzen [43] regime.
//
// seed selects the intermediate assignment; algorithms fix it so the
// whole computation stays deterministic.
//
// Each phase counts its per-destination load first and carves its
// queues from one backing array, so records are written in place; the
// returned packets' payloads likewise share one slice.
func Route(nd clique.Endpoint, packets []Packet, w int, seed uint64) []Packet {
	defer trace.Op(nd, "Route", len(packets)*(w+2))()
	n := nd.N()
	me := nd.ID()
	mid := func(idx int) int {
		return int(splitmix64(seed^uint64(me)*0x100000001b3^uint64(idx)) % uint64(n))
	}

	// Phase 1: spread every packet to a pseudo-random intermediate.
	// Wire format per packet: dst, src, payload words.
	load := make([]int, n)
	for idx, p := range packets {
		if len(p.Payload) != w {
			nd.Fail("comm: packet %d has payload width %d, instance width is %d", idx, len(p.Payload), w)
		}
		if p.Dst < 0 || p.Dst >= n {
			nd.Fail("comm: packet %d has bad destination %d", idx, p.Dst)
		}
		load[mid(idx)] += w + 2
	}
	queues := carveQueues(load)
	for idx, p := range packets {
		t := mid(idx)
		queues[t] = append(queues[t], uint64(p.Dst), uint64(me))
		queues[t] = append(queues[t], p.Payload...)
	}
	// Packets whose intermediate is the sender itself never hit the
	// network in phase 1; hold them aside and let them join phase 2.
	held := queues[me]
	queues[me] = nil

	in := AllToAll(nd, queues)

	// Phase 2: every intermediate forwards to true destinations.
	// Wire format per packet: src, payload words. Packets already at
	// their destination stay local and lead the output.
	clear(load)
	nLocal := 0
	records(held, in, w+2, func(rec []uint64) {
		if dst := int(rec[0]); dst == me {
			nLocal++
		} else {
			load[dst] += w + 1
		}
	})
	queues2 := carveQueues(load)
	records(held, in, w+2, func(rec []uint64) {
		if dst := int(rec[0]); dst != me {
			queues2[dst] = append(queues2[dst], rec[1:]...)
		}
	})

	in2 := AllToAll(nd, queues2)

	out := newInbox(nLocal+countRecords(in2, w+1), w)
	records(held, in, w+2, func(rec []uint64) {
		if int(rec[0]) == me {
			out.add(int(rec[1]), me, rec[2:])
		}
	})
	records(nil, in2, w+1, func(rec []uint64) { out.add(int(rec[0]), me, rec[1:]) })
	return out.packets
}

// RouteDirect is the ablation baseline: every packet travels straight to
// its destination with no balancing. Its round count is 1 + the maximum
// number of words any single ordered pair must carry, so skewed instances
// degrade to Theta(max pair load) instead of O(s + r).
func RouteDirect(nd clique.Endpoint, packets []Packet, w int) []Packet {
	defer trace.Op(nd, "RouteDirect", len(packets)*(w+1))()
	n := nd.N()
	me := nd.ID()
	load := make([]int, n)
	for idx, p := range packets {
		if len(p.Payload) != w {
			nd.Fail("comm: packet %d has payload width %d, instance width is %d", idx, len(p.Payload), w)
		}
		if p.Dst == me {
			nd.Fail("comm: RouteDirect packet addressed to self")
		}
		load[p.Dst] += w + 1
	}
	queues := carveQueues(load)
	for _, p := range packets {
		queues[p.Dst] = append(queues[p.Dst], uint64(me))
		queues[p.Dst] = append(queues[p.Dst], p.Payload...)
	}
	in := AllToAll(nd, queues)
	out := newInbox(countRecords(in, w+1), w)
	records(nil, in, w+1, func(rec []uint64) { out.add(int(rec[0]), me, rec[1:]) })
	return out.packets
}

// carveQueues returns one empty queue per destination with capacity
// exactly load[t] words, all cut from a single backing array, so the
// appends that fill them never reallocate.
func carveQueues(load []int) [][]uint64 {
	total := 0
	for _, l := range load {
		total += l
	}
	backing := make([]uint64, total)
	queues := make([][]uint64, len(load))
	off := 0
	for t, l := range load {
		queues[t] = backing[off : off : off+l]
		off += l
	}
	return queues
}

// records calls f on every whole stride-word record of first and then
// of each stream in order; a trailing partial record is ignored.
func records(first []uint64, streams [][]uint64, stride int, f func(rec []uint64)) {
	each := func(stream []uint64) {
		for off := 0; off+stride <= len(stream); off += stride {
			f(stream[off : off+stride])
		}
	}
	each(first)
	for _, s := range streams {
		each(s)
	}
}

// countRecords is the number of whole stride-word records in streams.
func countRecords(streams [][]uint64, stride int) int {
	total := 0
	for _, s := range streams {
		total += len(s) / stride
	}
	return total
}

// inbox collects received packets; their payloads are carved in order
// from one slice sized for every packet up front.
type inbox struct {
	packets []Packet
	words   []uint64
}

func newInbox(count, w int) *inbox {
	return &inbox{packets: make([]Packet, 0, count), words: make([]uint64, count*w)}
}

// add appends a packet carrying a copy of payload.
func (b *inbox) add(src, dst int, payload []uint64) {
	w := len(payload)
	p := b.words[:w:w]
	b.words = b.words[w:]
	copy(p, payload)
	b.packets = append(b.packets, Packet{Src: src, Dst: dst, Payload: p})
}
