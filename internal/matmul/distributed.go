package matmul

import (
	"repro/internal/clique"
	"repro/internal/comm"
)

// The distributed layout throughout this package is row-major: node i
// holds row i of each matrix, matching the congested clique input
// convention where node i knows its incident edges (= row i of the
// adjacency matrix).

// MulNaive computes row nd.ID() of C = A (x) B where this node holds
// aRow = A[id] and bRow = B[id]. Every node broadcasts its B row, so all
// nodes learn B and multiply locally: Theta(n / wordsPerPair) rounds.
// This is the delta = 1 baseline of Figure 1. Over the Boolean
// semiring the rows travel bit-packed (MulNaiveBits), cutting the wire
// cost to ceil(n/64) words per row; the output is bit-identical.
func MulNaive(nd clique.Endpoint, s Semiring, aRow, bRow []int64) []int64 {
	if _, boolean := s.(Boolean); boolean {
		return boolRows(nd, aRow, bRow, MulNaiveBits)
	}
	n := nd.N()
	if len(aRow) != n || len(bRow) != n {
		nd.Fail("matmul: rows have lengths %d, %d; want %d", len(aRow), len(bRow), n)
	}
	words := make([]uint64, n)
	for j, x := range bRow {
		words[j] = uint64(x)
	}
	table := comm.BroadcastAll(nd, words, n)

	out := make([]int64, n)
	for j := range out {
		out[j] = s.Zero()
	}
	for k := 0; k < n; k++ {
		aik := aRow[k]
		bk := table[k]
		for j := 0; j < n; j++ {
			out[j] = s.Add(out[j], s.Mul(aik, int64(bk[j])))
		}
	}
	return out
}

// cube returns the largest q with q^3 <= n.
func cube(n int) int {
	q := 1
	for (q+1)*(q+1)*(q+1) <= n {
		q++
	}
	return q
}

// part describes the split of 0..n-1 into q nearly-equal intervals.
type part struct {
	n, q, size int
}

func newPart(n, q int) part { return part{n: n, q: q, size: (n + q - 1) / q} }

// of returns which interval index i belongs to.
func (p part) of(i int) int { return i / p.size }

// bounds returns the half-open range of interval t, clipped to n.
func (p part) bounds(t int) (lo, hi int) {
	lo = t * p.size
	hi = lo + p.size
	if lo > p.n {
		lo = p.n
	}
	if hi > p.n {
		hi = p.n
	}
	return lo, hi
}

// tripleOf maps a node id < q^3 to its (i, j, k) coordinates.
func tripleOf(id, q int) (i, j, k int) {
	return id / (q * q), (id / q) % q, id % q
}

// idOf inverts tripleOf.
func idOf(i, j, k, q int) int { return i*q*q + j*q + k }

// Mul3D computes row nd.ID() of C = A (x) B using the 3D decomposition
// of Censor-Hillel et al. [10]: node (i, j, k) of a q x q x q cube
// (q = floor(n^{1/3})) multiplies blocks A[P_i][P_k] * B[P_k][P_j]
// locally, the k-dimension is reduced by semiring addition, and results
// return to their row owners. All traffic moves as individual
// O(log n)-bit entries through the routing substrate, exactly as the
// original algorithm invokes Lenzen routing; per-node send and receive
// volumes are O(n^{4/3}) words, giving O(n^{1/3}) rounds. This realises
// delta <= 1/3 for semiring matrix multiplication in Figure 1.
//
// Entries equal to the semiring zero are not transmitted (receivers
// default to zero), so sparse instances cost proportionally less — the
// asymptotic worst case is unchanged.
//
// Over the Boolean semiring the schedule dispatches to Mul3DBits, the
// bit-packed variant whose block exchanges ship 64 entries per word
// over fixed-width collectives; the output is bit-identical.
func Mul3D(nd clique.Endpoint, s Semiring, aRow, bRow []int64) []int64 {
	if _, boolean := s.(Boolean); boolean {
		return boolRows(nd, aRow, bRow, Mul3DBits)
	}
	n := nd.N()
	me := nd.ID()
	if len(aRow) != n || len(bRow) != n {
		nd.Fail("matmul: rows have lengths %d, %d; want %d", len(aRow), len(bRow), n)
	}
	q := cube(n)
	p := newPart(n, q)
	seg := p.size
	zero := s.Zero()
	const seedBase = 0x3d3d
	un := uint64(n)

	// Step 1: distribute input entries. Entry A[r][c] goes to nodes
	// (part(r), x, part(c)) for all x; entry B[r][c] goes to
	// (x, part(c), part(r)) for all x. Payload: [tag*n^2 + r*n + c,
	// value] where tag 0 marks A, 1 marks B.
	myPart := p.of(me)
	packets := pairPackets(func(emit func(dst int, key, val uint64)) {
		for c := 0; c < n; c++ {
			cp := p.of(c)
			if aRow[c] != zero {
				key := uint64(me)*un + uint64(c)
				for x := 0; x < q; x++ {
					emit(idOf(myPart, x, cp, q), key, uint64(aRow[c]))
				}
			}
			if bRow[c] != zero {
				key := un*un + uint64(me)*un + uint64(c)
				for x := 0; x < q; x++ {
					emit(idOf(x, cp, myPart, q), key, uint64(bRow[c]))
				}
			}
		}
	})
	in := comm.Route(nd, packets, 2, seedBase)

	// Step 2: assemble local blocks and multiply. Node (i, j, k) holds
	// aBlk = A[P_i][P_k] and bBlk = B[P_k][P_j], both padded to
	// seg x seg with zeros (which annihilate).
	var partial [][]int64
	isWorker := me < q*q*q
	var ti, tj, tk int
	if isWorker {
		ti, tj, tk = tripleOf(me, q)
		aBlk := zeroBlock(s, seg, seg)
		bBlk := zeroBlock(s, seg, seg)
		iLo, _ := p.bounds(ti)
		jLo, _ := p.bounds(tj)
		kLo, _ := p.bounds(tk)
		for _, pkt := range in {
			key := pkt.Payload[0]
			val := int64(pkt.Payload[1])
			tag := key / (un * un)
			r := int(key / un % un)
			c := int(key % un)
			if tag == 0 {
				aBlk[r-iLo][c-kLo] = val
			} else {
				bBlk[r-kLo][c-jLo] = val
			}
		}
		partial = MulLocal(s, aBlk, bBlk)
	}

	// Step 3: reduce over k. Within the (i, j, *) fibre the block rows
	// are split into q chunks; chunk c is summed at node (i, j, c).
	// Payload: [localRow*seg + col, value].
	chunk := (seg + q - 1) / q
	var redPkts []comm.Packet
	if isWorker {
		redPkts = pairPackets(func(emit func(dst int, key, val uint64)) {
			for c := 0; c < q; c++ {
				dst := idOf(ti, tj, c, q)
				if dst == me {
					continue // my own chunk is summed locally below
				}
				for lr := c * chunk; lr < (c+1)*chunk && lr < seg; lr++ {
					for col := 0; col < seg; col++ {
						if partial[lr][col] != zero {
							emit(dst, uint64(lr*seg+col), uint64(partial[lr][col]))
						}
					}
				}
			}
		})
	}
	redIn := comm.Route(nd, redPkts, 2, seedBase+1)

	// Sum my chunk: block rows [tk*chunk, (tk+1)*chunk).
	var sum [][]int64
	if isWorker {
		sum = zeroBlock(s, chunk, seg)
		for lr := tk * chunk; lr < (tk+1)*chunk && lr < seg; lr++ {
			copy(sum[lr-tk*chunk], partial[lr])
		}
		for _, pkt := range redIn {
			lr := int(pkt.Payload[0]) / seg
			col := int(pkt.Payload[0]) % seg
			r := lr - tk*chunk
			if r < 0 || r >= chunk {
				nd.Fail("matmul: reduction row %d outside chunk %d", lr, tk)
			}
			sum[r][col] = s.Add(sum[r][col], int64(pkt.Payload[1]))
		}
	}

	// Step 4: ship result entries to row owners. After the reduction,
	// node (i, j, k) exclusively holds C entries for global rows
	// iLo + k*chunk .. and columns P_j. Payload: [col, value].
	var outPkts []comm.Packet
	if isWorker {
		iLo, _ := p.bounds(ti)
		jLo, jHi := p.bounds(tj)
		outPkts = pairPackets(func(emit func(dst int, key, val uint64)) {
			for r := 0; r < chunk; r++ {
				global := iLo + tk*chunk + r
				if global >= n || tk*chunk+r >= seg {
					continue
				}
				for col := jLo; col < jHi; col++ {
					if sum[r][col-jLo] != zero {
						emit(global, uint64(col), uint64(sum[r][col-jLo]))
					}
				}
			}
		})
	}
	outIn := comm.Route(nd, outPkts, 2, seedBase+2)

	out := make([]int64, n)
	for j := range out {
		out[j] = zero
	}
	for _, pkt := range outIn {
		out[pkt.Payload[0]] = int64(pkt.Payload[1])
	}
	return out
}

// pairPackets materialises the [key, value] packets gen emits, in
// emission order. gen runs twice — once to count, once to fill — so the
// packet slice is allocated once and every payload is carved from one
// backing slice instead of allocated per packet.
func pairPackets(gen func(emit func(dst int, key, val uint64))) []comm.Packet {
	count := 0
	gen(func(int, uint64, uint64) { count++ })
	packets := make([]comm.Packet, 0, count)
	words := make([]uint64, 2*count)
	gen(func(dst int, key, val uint64) {
		pl := words[:2:2]
		words = words[2:]
		pl[0], pl[1] = key, val
		packets = append(packets, comm.Packet{Dst: dst, Payload: pl})
	})
	return packets
}

func zeroBlock(s Semiring, rows, cols int) [][]int64 {
	blk := make([][]int64, rows)
	for i := range blk {
		blk[i] = make([]int64, cols)
		for j := range blk[i] {
			blk[i][j] = s.Zero()
		}
	}
	return blk
}

// MulFunc is the signature shared by MulNaive and Mul3D so callers and
// benchmarks can swap schedules.
type MulFunc func(nd clique.Endpoint, s Semiring, aRow, bRow []int64) []int64
