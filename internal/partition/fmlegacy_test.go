package partition

// The legacy FM engine: one global lazy-deletion max-heap, eager pushes at
// every gain update, full tieCode refresh on every count change. PR 9
// replaced it with the bucketed gain queue in fmPass; this copy is kept
// test-only as the behavioral reference. FuzzFMPassEquivalence (and the
// deterministic TestFMPassEquivalenceRandom sweep) pin the production
// engine's move sequence, improvement flag, and final partition to it
// bit for bit across weight distributions and hypergraph shapes.

import (
	"math/rand"
	"slices"
	"testing"
)

// fmPassReference is the legacy fmPass with look-ahead always on,
// otherwise verbatim except that accepted moves are recorded into *seq
// for the differential tests.
func fmPassReference(h *Hypergraph, part []int8, inc [][]int32, lo, hi float64, seq *[]fmMove) bool {
	n := h.NumV
	cnt := make([][2]int32, len(h.Nets))
	for i, net := range h.Nets {
		for _, v := range net {
			cnt[i][part[v]]++
		}
	}
	gain := make([]float64, n)
	for v := 0; v < n; v++ {
		if h.Fixed[v] != -1 {
			continue
		}
		s := part[v]
		for _, ni := range inc[v] {
			w := h.netWeight(int(ni))
			if cnt[ni][s] == 1 {
				gain[v] += w
			}
			if cnt[ni][1-s] == 0 {
				gain[v] -= w
			}
		}
	}
	area0 := 0.0
	for v := 0; v < n; v++ {
		if part[v] == 0 {
			area0 += h.Area[v]
		}
	}

	stamp := make([]uint32, n)
	hp := make(gainHeap, 0, n)
	const (
		tiePlus  uint8 = 1
		tieMinus uint8 = 2
	)
	tieCode := make([]uint8, 2*len(h.Nets))
	setCode := func(ni int32) {
		c := &cnt[ni]
		for s := 0; s < 2; s++ {
			var b uint8
			if c[s] == 2 && c[1-s] > 0 {
				b = tiePlus
			}
			if c[1-s] == 1 {
				b |= tieMinus
			}
			tieCode[2*int(ni)+s] = b
		}
	}
	for ni := range h.Nets {
		setCode(int32(ni))
	}
	tieOf := func(v int32) float64 {
		var t float64
		s := int(part[v])
		for _, ni := range inc[v] {
			b := tieCode[2*int(ni)+s]
			if b == 0 {
				continue
			}
			w := h.netWeight(int(ni))
			if b&tiePlus != 0 {
				t += w
			}
			if b&tieMinus != 0 {
				t -= w
			}
		}
		return t
	}
	pushV := func(v int32) {
		stamp[v]++
		hp = append(hp, gainEntry{gain: gain[v], tie: tieOf(v), v: v, stamp: stamp[v]})
	}
	for v := 0; v < n; v++ {
		if h.Fixed[v] == -1 {
			pushV(int32(v))
		}
	}
	hp.init()

	locked := make([]bool, n)
	cum, bestCum, bestIdx := 0.0, 0.0, -1

	updateGain := func(v int32, d float64) {
		gain[v] += d
		if !locked[v] && h.Fixed[v] == -1 {
			stamp[v]++
			hp.push(gainEntry{gain: gain[v], tie: tieOf(v), v: v, stamp: stamp[v]})
		}
	}

	for len(hp) > 0 {
		ent := hp.pop()
		v := ent.v
		if locked[v] || ent.stamp != stamp[v] {
			continue
		}
		var na0 float64
		if part[v] == 0 {
			na0 = area0 - h.Area[v]
		} else {
			na0 = area0 + h.Area[v]
		}
		if na0 < lo || na0 > hi {
			continue
		}
		from := part[v]
		to := 1 - from

		for _, ni := range inc[v] {
			w := h.netWeight(int(ni))
			net := h.Nets[ni]
			if cnt[ni][to] == 0 {
				for _, u := range net {
					if u != v && !locked[u] && h.Fixed[u] == -1 {
						updateGain(u, w)
					}
				}
			} else if cnt[ni][to] == 1 {
				for _, u := range net {
					if u != v && part[u] == to && !locked[u] && h.Fixed[u] == -1 {
						updateGain(u, -w)
					}
				}
			}
			cnt[ni][from]--
			cnt[ni][to]++
			setCode(ni)
			if cnt[ni][from] == 0 {
				for _, u := range net {
					if u != v && !locked[u] && h.Fixed[u] == -1 {
						updateGain(u, -w)
					}
				}
			} else if cnt[ni][from] == 1 {
				for _, u := range net {
					if u != v && part[u] == from && !locked[u] && h.Fixed[u] == -1 {
						updateGain(u, w)
					}
				}
			}
		}
		part[v] = int8(to)
		area0 = na0
		locked[v] = true
		cum += ent.gain
		*seq = append(*seq, fmMove{v, ent.gain})
		if cum > bestCum+1e-12 {
			bestCum = cum
			bestIdx = len(*seq) - 1
		}
	}

	for i := len(*seq) - 1; i > bestIdx; i-- {
		v := (*seq)[i].v
		part[v] = 1 - part[v]
	}
	return bestIdx >= 0 && bestCum > 1e-12
}

// randomFMHypergraph builds a random instance. weightMode: 0 nil weights,
// 1 uniform non-unit, 2 skewed floats (big-bucket fallback), 3 small
// integers (semi-uniform).
//
// The sparse shape has n vertices and n..2n nets of 2–6 pins. The dense
// shape mimics a stalled coarse level of a bisection: vertices 0..n-1 are
// free, n and n+1 are terminals (fmEquivCheck fixes them to sides 0 and
// 1), and there are 20–30 nets of 2 or 3 distinct pins per free vertex,
// so one move re-updates a neighbor through dozens of shared in-band nets.
func randomFMHypergraph(rng *rand.Rand, n int, weightMode uint8, dense bool) *Hypergraph {
	h := &Hypergraph{NumV: n}
	numNets := n + rng.Intn(n+1)
	if dense {
		h.NumV = n + 2
		numNets = n * (20 + rng.Intn(11))
	}
	for i := 0; i < numNets; i++ {
		if dense {
			h.Nets = append(h.Nets, smallNet(rng, h.NumV))
			continue
		}
		net := make([]int32, 2+rng.Intn(5))
		for j := range net {
			net[j] = int32(rng.Intn(n))
		}
		h.Nets = append(h.Nets, net)
	}
	switch weightMode % 4 {
	case 1:
		h.Weight = make([]float64, numNets)
		for i := range h.Weight {
			h.Weight[i] = 2.5
		}
	case 2:
		h.Weight = make([]float64, numNets)
		for i := range h.Weight {
			h.Weight[i] = 0.05 + 10*rng.Float64()*rng.Float64()
		}
	case 3:
		h.Weight = make([]float64, numNets)
		for i := range h.Weight {
			h.Weight[i] = float64(1 + rng.Intn(5))
		}
	}
	return h
}

// smallNet draws a net of 2 or 3 distinct pins from vertices 0..numV-1.
func smallNet(rng *rand.Rand, numV int) []int32 {
	net := make([]int32, 0, 3)
	for k := 2 + rng.Intn(2); len(net) < k; {
		u := int32(rng.Intn(numV))
		if !slices.Contains(net, u) {
			net = append(net, u)
		}
	}
	return net
}

// fmEquivCheck runs up to three passes of the bucketed engine and the
// legacy reference from the same state and demands identical move
// sequences, improvement flags, and partitions after every pass. dense
// selects randomFMHypergraph's dense shape (8–40 free vertices).
func fmEquivCheck(t *testing.T, seed int64, weightMode uint8, dense bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(120)
	if dense {
		n = 8 + rng.Intn(33)
	}
	h := normalize(randomFMHypergraph(rng, n, weightMode, dense))
	part := make([]int8, h.NumV)
	for v := range part {
		part[v] = int8(rng.Intn(2))
	}
	if dense {
		for s := 0; s < 2; s++ {
			h.Fixed[n+s] = int8(s)
			part[n+s] = int8(s)
		}
	} else {
		for v := 0; v < h.NumV; v++ {
			if rng.Intn(16) == 0 {
				h.Fixed[v] = int8(rng.Intn(2))
				part[v] = h.Fixed[v]
			}
		}
	}
	totalArea := float64(h.NumV) // normalize gives unit areas
	lo, hi := totalArea*0.2, totalArea*0.8

	partRef := append([]int8(nil), part...)
	incRef := incidence(h)
	sc := &fmScratch{}
	sc.buildIncidence(h)

	for pass := 0; pass < 3; pass++ {
		var refSeq []fmMove
		refImp := fmPassReference(h, partRef, incRef, lo, hi, &refSeq)
		imp := fmPass(h, part, lo, hi, sc)
		if imp != refImp {
			t.Fatalf("seed=%d mode=%d dense=%v pass=%d: improved=%v reference=%v", seed, weightMode, dense, pass, imp, refImp)
		}
		if len(sc.seq) != len(refSeq) {
			t.Fatalf("seed=%d mode=%d dense=%v pass=%d: %d moves vs reference %d", seed, weightMode, dense, pass, len(sc.seq), len(refSeq))
		}
		for i := range refSeq {
			if sc.seq[i] != refSeq[i] {
				t.Fatalf("seed=%d mode=%d dense=%v pass=%d move=%d: %+v vs reference %+v", seed, weightMode, dense, pass, i, sc.seq[i], refSeq[i])
			}
		}
		for v := range part {
			if part[v] != partRef[v] {
				t.Fatalf("seed=%d mode=%d dense=%v pass=%d: part[%d]=%d vs reference %d", seed, weightMode, dense, pass, v, part[v], partRef[v])
			}
		}
		if !imp {
			break
		}
	}
	if got, want := Cut(h, part), Cut(h, partRef); got != want {
		t.Fatalf("seed=%d: cut %v vs reference %v", seed, got, want)
	}
}

// FuzzFMPassEquivalence pins the bucketed gain engine to the legacy heap
// reference: identical move sequence, improvement flag, final partition,
// and cut, across uniform/skewed/integer net weights and the sparse and
// dense hypergraph shapes.
func FuzzFMPassEquivalence(f *testing.F) {
	for _, dense := range []bool{false, true} {
		for s := int64(1); s <= 4; s++ {
			f.Add(s, uint8(s-1), dense)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, weightMode uint8, dense bool) {
		fmEquivCheck(t, seed, weightMode, dense)
	})
}

// TestFMPassEquivalenceRandom is the deterministic always-on sweep over
// the same property the fuzz explores.
func TestFMPassEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		for mode := uint8(0); mode < 4; mode++ {
			for _, dense := range []bool{false, true} {
				fmEquivCheck(t, seed, mode, dense)
			}
		}
	}
}

// BenchmarkFMPass measures one FM pass of the production engine on two
// shapes with unit weights (dense-lattice buckets): a sparse 20k-vertex
// random hypergraph, and a coarse one — 300 vertices and 100 two- and
// three-pin nets per vertex, the shape of a stalled coarse level of a
// large bisection, where one move re-updates a neighbor through many
// shared nets at the cut.
func BenchmarkFMPass(b *testing.B) {
	shapes := []struct {
		name string
		h    func(rng *rand.Rand) *Hypergraph
	}{
		{"sparse", func(rng *rand.Rand) *Hypergraph { return randomFMHypergraph(rng, 20000, 0, false) }},
		{"coarse", func(rng *rand.Rand) *Hypergraph {
			h := &Hypergraph{NumV: 300}
			for i := 0; i < 100*h.NumV; i++ {
				h.Nets = append(h.Nets, smallNet(rng, h.NumV))
			}
			return h
		}},
	}
	for _, shape := range shapes {
		b.Run("shape="+shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			h := normalize(shape.h(rng))
			base := make([]int8, h.NumV)
			for v := range base {
				base[v] = int8(rng.Intn(2))
			}
			totalArea := float64(h.NumV)
			lo, hi := totalArea*0.4, totalArea*0.6
			sc := &fmScratch{}
			sc.buildIncidence(h)
			part := make([]int8, h.NumV)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(part, base)
				fmPass(h, part, lo, hi, sc)
			}
			st := sc.stats
			b.ReportMetric(float64(st.Pushes)/float64(b.N), "pushes/op")
			b.ReportMetric(float64(st.Pops)/float64(b.N), "pops/op")
		})
	}
}
