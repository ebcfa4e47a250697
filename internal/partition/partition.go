// Package partition implements the min-cut bipartitioner underneath the
// Partitioner transform of §4.1: multilevel coarsening (heavy-edge style
// matching, refs [2,13]) with Fiduccia–Mattheyses refinement at every
// level, tie-broken by Krishnamurthy-style look-ahead gains (ref [4]).
// Vertices carry areas; nets carry weights (which is how the
// logical-effort net weighting of §4.3 and the clock/scan schedule of §4.5
// influence placement). Fixed vertices model projected terminals.
package partition

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"

	"tps/internal/par"
)

// pcgStream is the fixed second seed word for every PCG stream below.
// PR 9 moved the restart and matching RNGs from math/rand's Go1 source
// (whose Seed burns a 607-entry feedback table per call — a measurable
// slice of Bipartition at quadrisection scale, where thousands of small
// regions each seed several streams) to math/rand/v2's two-word PCG.
// Streams stay deterministic per (Seed, restart); only the drawn
// sequences differ from the pre-PR-9 engine.
const pcgStream = 0x9e3779b97f4a7c15

// Multilevel tuning: restarts initial partitions are tried at the
// coarsest level, coarsening stops at or below coarsenTo vertices, and
// each level runs at most maxPasses FM passes.
const (
	restarts  = 4
	coarsenTo = 120
	maxPasses = 4
)

// Stats counts FM gain-structure traffic: how many entries the refinement
// passes pushed into and popped out of the gain priority structure, how
// many of the pops were stale (superseded by a newer push before they
// surfaced), how many neighbor gain updates the moves generated, and how
// often the structure compacted its live entries. The counters are
// deterministic — they depend only on the hypergraph and Options, never on
// scheduling — so flows that sum them across worker-forked Bipartition
// calls stay bit-identical at any worker count.
type Stats struct {
	Pushes      uint64 // entries pushed into the gain structure
	Pops        uint64 // entries popped (live and stale)
	StalePops   uint64 // pops discarded as stale or locked
	GainUpdates uint64 // neighbor gain-delta applications
	Compactions uint64 // live-entry compactions of the gain structure
}

// addAtomic folds d into s with atomic adds, so concurrent Bipartition
// calls (forked quadrisection cells) can share one sink.
func (s *Stats) addAtomic(d Stats) {
	atomic.AddUint64(&s.Pushes, d.Pushes)
	atomic.AddUint64(&s.Pops, d.Pops)
	atomic.AddUint64(&s.StalePops, d.StalePops)
	atomic.AddUint64(&s.GainUpdates, d.GainUpdates)
	atomic.AddUint64(&s.Compactions, d.Compactions)
}

// Snapshot returns an atomically-read copy of a shared sink.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Pushes:      atomic.LoadUint64(&s.Pushes),
		Pops:        atomic.LoadUint64(&s.Pops),
		StalePops:   atomic.LoadUint64(&s.StalePops),
		GainUpdates: atomic.LoadUint64(&s.GainUpdates),
		Compactions: atomic.LoadUint64(&s.Compactions),
	}
}

// tieCheck, when set by tests, makes fmPass record the reference
// lookAheadGain at every gain update and panic when a tie it pushes
// differs from that record in any bit.
var tieCheck bool

// Hypergraph is the partitioning input. Vertices are 0..NumV-1.
type Hypergraph struct {
	NumV int
	// Area per vertex (balance is by area, as in the paper).
	Area []float64
	// Fixed[v]: -1 free, 0 or 1 pinned to that side (terminal projection).
	Fixed []int8
	// Nets lists each net's vertices (duplicates allowed; they are
	// deduplicated internally).
	Nets [][]int32
	// Weight per net; nil means all 1.
	Weight []float64
}

// netWeight returns the weight of net i.
func (h *Hypergraph) netWeight(i int) float64 {
	if h.Weight == nil {
		return 1
	}
	return h.Weight[i]
}

// Options tunes Bipartition.
type Options struct {
	// TargetFrac is the desired fraction of total area on side 0
	// (0.5 for an even split; window splits may be uneven).
	TargetFrac float64
	// Tolerance is the allowed relative deviation of side-0 area from
	// target (e.g. 0.1).
	Tolerance float64
	// Seed drives all randomness (deterministic runs).
	Seed int64
	// Workers bounds how many initial-partition restarts run concurrently.
	// Each restart draws from its own seed-derived RNG stream and the
	// winner is picked by (cut, restart index), so the result is identical
	// at any worker count; <=1 runs serially.
	Workers int
	// Stats, when non-nil, receives the run's gain-structure counters
	// (atomic adds: many concurrent Bipartition calls may share one sink).
	Stats *Stats
	// Scratch, when non-nil, supplies reusable per-pass FM scratch
	// (gain/tie/bucket arrays, locked bitsets) so repeated Bipartition
	// calls — the quadrisection tree makes tens of thousands of them —
	// stop re-allocating. Purely an allocation amortizer: results are
	// bit-identical with or without it.
	Scratch *ScratchPool
}

// DefaultOptions returns sensible defaults for placement-sized problems.
func DefaultOptions(seed int64) Options {
	return Options{
		TargetFrac: 0.5,
		Tolerance:  0.1,
		Seed:       seed,
	}
}

// Result is a bipartition.
type Result struct {
	Part []int8
	Cut  float64
	// Stats are this run's gain-structure counters (also folded into
	// Options.Stats when that sink is set).
	Stats Stats
}

// ScratchPool amortizes FM scratch allocations across Bipartition calls.
// It is safe for concurrent use; the pooled buffers never influence
// results (every pass fully re-initializes the regions it reads).
type ScratchPool struct {
	pool sync.Pool
}

// NewScratchPool returns an empty pool. A nil *ScratchPool is valid and
// simply allocates fresh scratch per call.
func NewScratchPool() *ScratchPool { return &ScratchPool{} }

func (sp *ScratchPool) get() *fmScratch {
	if sp == nil {
		return &fmScratch{}
	}
	if s, ok := sp.pool.Get().(*fmScratch); ok {
		return s
	}
	return &fmScratch{}
}

func (sp *ScratchPool) put(s *fmScratch) {
	if sp != nil {
		sp.pool.Put(s)
	}
}

// Cut returns the weighted cut of part on h.
func Cut(h *Hypergraph, part []int8) float64 {
	var cut float64
	for i, net := range h.Nets {
		var seen [2]bool
		for _, v := range net {
			seen[part[v]] = true
		}
		if seen[0] && seen[1] {
			cut += h.netWeight(i)
		}
	}
	return cut
}

// Bipartition splits h into two sides minimizing weighted cut subject to
// the area balance constraint, using the multilevel scheme.
func Bipartition(h *Hypergraph, opt Options) Result {
	if opt.TargetFrac <= 0 || opt.TargetFrac >= 1 {
		opt.TargetFrac = 0.5
	}
	if opt.Tolerance <= 0 {
		opt.Tolerance = 0.1
	}
	rng := rand.New(rand.NewPCG(uint64(opt.Seed), pcgStream))
	sc := opt.Scratch.get()
	defer opt.Scratch.put(sc)
	sc.stats = Stats{}

	levels := []*Hypergraph{normalize(h)}
	maps := [][]int32{}
	for levels[len(levels)-1].NumV > coarsenTo {
		cur := levels[len(levels)-1]
		next, vmap := coarsen(cur, rng, sc)
		if next.NumV >= cur.NumV*9/10 {
			break // stalled; further matching won't help
		}
		levels = append(levels, next)
		maps = append(maps, vmap)
	}

	coarsest := levels[len(levels)-1]
	part := initialPartition(coarsest, opt)
	repairBalance(coarsest, part, opt)
	refine(coarsest, part, opt, sc)

	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		vmap := maps[li]
		finePart := make([]int8, fine.NumV)
		for v := 0; v < fine.NumV; v++ {
			finePart[v] = part[vmap[v]]
		}
		part = finePart
		repairBalance(fine, part, opt)
		refine(fine, part, opt, sc)
	}
	if opt.Stats != nil {
		opt.Stats.addAtomic(sc.stats)
	}
	return Result{Part: part, Cut: Cut(levels[0], part), Stats: sc.stats}
}

// normalize copies h with deduplicated net pins and dropped degenerate
// nets, so the core algorithms can assume clean input.
func normalize(h *Hypergraph) *Hypergraph {
	out := &Hypergraph{
		NumV:  h.NumV,
		Area:  h.Area,
		Fixed: h.Fixed,
	}
	if out.Area == nil {
		out.Area = make([]float64, h.NumV)
		for i := range out.Area {
			out.Area[i] = 1
		}
	}
	if out.Fixed == nil {
		out.Fixed = make([]int8, h.NumV)
		for i := range out.Fixed {
			out.Fixed[i] = -1
		}
	}
	stamp := make([]int32, h.NumV)
	for i := range stamp {
		stamp[i] = -1
	}
	totalPins := 0
	for _, net := range h.Nets {
		totalPins += len(net)
	}
	// One slab sized for every pin: appends never reallocate it, so the
	// net slices cut from it stay valid.
	slab := make([]int32, 0, totalPins)
	out.Nets = make([][]int32, 0, len(h.Nets))
	out.Weight = make([]float64, 0, len(h.Nets))
	for i, net := range h.Nets {
		start := len(slab)
		for _, v := range net {
			if stamp[v] != int32(i) {
				stamp[v] = int32(i)
				slab = append(slab, v)
			}
		}
		if len(slab)-start < 2 {
			slab = slab[:start]
			continue
		}
		out.Nets = append(out.Nets, slab[start:len(slab):len(slab)])
		out.Weight = append(out.Weight, h.netWeight(i))
	}
	// Weight slice always present after normalize.
	return out
}

// incidence builds vertex → net-index lists.
func incidence(h *Hypergraph) [][]int32 {
	inc := make([][]int32, h.NumV)
	for i, net := range h.Nets {
		for _, v := range net {
			inc[v] = append(inc[v], int32(i))
		}
	}
	return inc
}

// coarsen contracts a heavy-edge-style matching: each free vertex picks
// the unmatched neighbor with the largest accumulated clique weight
// (w/(|net|−1) per shared net). Fixed vertices stay singletons. The
// incidence comes from the scratch CSR and the contracted pin lists land
// in one slab — per-level coarsening allocates O(1) objects, not O(nets).
func coarsen(h *Hypergraph, rng *rand.Rand, sc *fmScratch) (*Hypergraph, []int32) {
	sc.buildIncidence(h)
	inc := &sc.inc
	order := rng.Perm(h.NumV)
	match := make([]int32, h.NumV)
	for i := range match {
		match[i] = -1
	}

	score := make([]float64, h.NumV)
	var touched []int32
	for _, vi := range order {
		v := int32(vi)
		if match[v] != -1 || h.Fixed[v] != -1 {
			continue
		}
		touched = touched[:0]
		for _, ni := range inc.row(v) {
			net := h.Nets[ni]
			if len(net) > 16 {
				continue // huge nets carry no clustering signal
			}
			w := h.netWeight(int(ni)) / float64(len(net)-1)
			for _, u := range net {
				if u == v || match[u] != -1 || h.Fixed[u] != -1 {
					continue
				}
				if score[u] == 0 {
					touched = append(touched, u)
				}
				score[u] += w
			}
		}
		var best int32 = -1
		bestScore := 0.0
		for _, u := range touched {
			if score[u] > bestScore {
				best, bestScore = u, score[u]
			}
			score[u] = 0
		}
		if best != -1 {
			match[v] = best
			match[best] = v
		}
	}

	vmap := make([]int32, h.NumV)
	for i := range vmap {
		vmap[i] = -1
	}
	next := int32(0)
	for v := 0; v < h.NumV; v++ {
		if vmap[v] != -1 {
			continue
		}
		vmap[v] = next
		if m := match[v]; m != -1 && vmap[m] == -1 {
			vmap[m] = next
		}
		next++
	}

	out := &Hypergraph{
		NumV:  int(next),
		Area:  make([]float64, next),
		Fixed: make([]int8, next),
	}
	for i := range out.Fixed {
		out.Fixed[i] = -1
	}
	for v := 0; v < h.NumV; v++ {
		nv := vmap[v]
		out.Area[nv] += h.Area[v]
		if h.Fixed[v] != -1 {
			out.Fixed[nv] = h.Fixed[v]
		}
	}
	stamp := make([]int32, next)
	for i := range stamp {
		stamp[i] = -1
	}
	totalPins := 0
	for _, net := range h.Nets {
		totalPins += len(net)
	}
	slab := make([]int32, 0, totalPins)
	out.Nets = make([][]int32, 0, len(h.Nets))
	out.Weight = make([]float64, 0, len(h.Nets))
	for i, net := range h.Nets {
		start := len(slab)
		for _, v := range net {
			nv := vmap[v]
			if stamp[nv] != int32(i) {
				stamp[nv] = int32(i)
				slab = append(slab, nv)
			}
		}
		if len(slab)-start < 2 {
			slab = slab[:start]
			continue
		}
		out.Nets = append(out.Nets, slab[start:len(slab)])
		out.Weight = append(out.Weight, h.netWeight(i))
	}
	return out, vmap
}

// initialPartition tries restarts BFS-grown partitions and keeps the
// lowest-cut result. The restarts are independent — each draws from its own
// RNG stream derived from (Seed, restart index) — so they run concurrently
// under opt.Workers, and the winner is chosen by (cut, restart index): the
// same strict-< scan a serial loop performs, never by completion order.
func initialPartition(h *Hypergraph, opt Options) []int8 {
	inc := incidence(h)
	totalArea := 0.0
	for _, a := range h.Area {
		totalArea += a
	}
	target := totalArea * opt.TargetFrac

	parts := make([][]int8, restarts)
	cuts := make([]float64, restarts)
	par.ForEach(opt.Workers, restarts, func(r int) {
		rng := rand.New(rand.NewPCG(uint64(par.DeriveSeed(opt.Seed, 1, int64(r))), pcgStream))
		part := growPartition(h, inc, target, rng)
		parts[r], cuts[r] = part, Cut(h, part)
	})
	best := 0
	for r := 1; r < restarts; r++ {
		if cuts[r] < cuts[best] {
			best = r
		}
	}
	return parts[best]
}

// growPartition builds one BFS-grown initial partition.
func growPartition(h *Hypergraph, inc [][]int32, target float64, rng *rand.Rand) []int8 {
	part := make([]int8, h.NumV)
	{
		for v := range part {
			part[v] = 1
		}
		fixedArea0 := 0.0
		for v := 0; v < h.NumV; v++ {
			if h.Fixed[v] == 0 {
				part[v] = 0
				fixedArea0 += h.Area[v]
			}
		}
		// BFS-grow side 0 from a random free seed.
		area0 := fixedArea0
		visited := make([]bool, h.NumV)
		var queue []int32
		for v := 0; v < h.NumV; v++ {
			if h.Fixed[v] == 0 {
				visited[v] = true
				queue = append(queue, int32(v))
			}
		}
		if len(queue) == 0 && h.NumV > 0 {
			seed := int32(rng.IntN(h.NumV))
			for tries := 0; h.Fixed[seed] != -1 && tries < h.NumV; tries++ {
				seed = (seed + 1) % int32(h.NumV)
			}
			visited[seed] = true
			queue = append(queue, seed)
			if h.Fixed[seed] == -1 {
				part[seed] = 0
				area0 += h.Area[seed]
			}
		}
		for qi := 0; qi < len(queue) && area0 < target; qi++ {
			v := queue[qi]
			for _, ni := range inc[v] {
				for _, u := range h.Nets[ni] {
					if visited[u] {
						continue
					}
					visited[u] = true
					queue = append(queue, u)
					if h.Fixed[u] == -1 && area0 < target {
						part[u] = 0
						area0 += h.Area[u]
					}
				}
			}
		}
		// Top up with random free vertices if BFS ran out of reach.
		for _, vi := range rng.Perm(h.NumV) {
			if area0 >= target {
				break
			}
			if h.Fixed[vi] == -1 && part[vi] == 1 {
				part[vi] = 0
				area0 += h.Area[vi]
			}
		}
	}
	return part
}

// repairBalance greedily moves free vertices across the cut until side-0
// area sits inside the tolerance window (FM passes preserve balance but
// cannot create it: a pass whose best prefix is empty keeps the initial,
// possibly imbalanced, state). Vertices are moved largest-first without
// overshooting the window.
func repairBalance(h *Hypergraph, part []int8, opt Options) {
	totalArea := 0.0
	for _, a := range h.Area {
		totalArea += a
	}
	target := totalArea * opt.TargetFrac
	lo := target - totalArea*opt.Tolerance
	hi := target + totalArea*opt.Tolerance

	area0 := 0.0
	for v := 0; v < h.NumV; v++ {
		if part[v] == 0 {
			area0 += h.Area[v]
		}
	}
	if area0 >= lo && area0 <= hi {
		return
	}

	// from: the overfull side.
	var from int8
	if area0 > hi {
		from = 0
	} else {
		from = 1
	}
	type va struct {
		v int32
		a float64
	}
	var cands []va
	for v := 0; v < h.NumV; v++ {
		if h.Fixed[v] == -1 && part[v] == from {
			cands = append(cands, va{int32(v), h.Area[v]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].a != cands[j].a {
			return cands[i].a > cands[j].a
		}
		return cands[i].v < cands[j].v
	})
	for _, c := range cands {
		if area0 >= lo && area0 <= hi {
			return
		}
		var na0 float64
		if from == 0 {
			na0 = area0 - c.a
			if na0 < lo {
				continue // would overshoot; try a smaller vertex
			}
		} else {
			na0 = area0 + c.a
			if na0 > hi {
				continue
			}
		}
		part[c.v] = 1 - from
		area0 = na0
	}
	// If still outside (e.g. everything fixed, or one vertex larger than
	// the window), force the closest approach with the smallest vertices.
	for i := len(cands) - 1; i >= 0; i-- {
		if area0 >= lo && area0 <= hi {
			return
		}
		c := cands[i]
		if part[c.v] != from {
			continue
		}
		var na0 float64
		if from == 0 {
			na0 = area0 - c.a
			if na0 < lo && math.Abs(na0-target) >= math.Abs(area0-target) {
				continue
			}
		} else {
			na0 = area0 + c.a
			if na0 > hi && math.Abs(na0-target) >= math.Abs(area0-target) {
				continue
			}
		}
		part[c.v] = 1 - from
		area0 = na0
	}
}

// gainEntry is one queued (vertex, key) pair. Entries are lazy: a newer
// push for the same vertex supersedes older ones, which are recognized by
// their stamp and discarded when popped (or dropped wholesale by a
// compaction).
type gainEntry struct {
	gain  float64
	tie   float64 // look-ahead secondary gain
	v     int32
	stamp uint32
}

// gainHeap is a typed slice max-heap ordered by (gain desc, look-ahead tie
// desc, vertex asc): no container/heap interface dispatch, no interface{}
// boxing per push in the FM inner loop. Since PR 9 it serves as the
// within-bucket mini-heap of bucketQueue (and as the test-only legacy
// reference engine's global heap). The ordering is a strict total order
// except for repeated pushes of the same vertex with equal keys, whose
// relative pop order is irrelevant: stamp-based staleness makes all but
// the latest a no-op.
type gainHeap []gainEntry

func (g gainHeap) less(i, j int) bool {
	if g[i].gain != g[j].gain {
		return g[i].gain > g[j].gain
	}
	if g[i].tie != g[j].tie {
		return g[i].tie > g[j].tie
	}
	return g[i].v < g[j].v
}

func (g gainHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !g.less(i, parent) {
			break
		}
		g[i], g[parent] = g[parent], g[i]
		i = parent
	}
}

func (g gainHeap) siftDown(i int) {
	n := len(g)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && g.less(r, l) {
			m = r
		}
		if !g.less(m, i) {
			return
		}
		g[i], g[m] = g[m], g[i]
		i = m
	}
}

func (g gainHeap) init() {
	for i := len(g)/2 - 1; i >= 0; i-- {
		g.siftDown(i)
	}
}

func (g *gainHeap) push(e gainEntry) {
	*g = append(*g, e)
	g.siftUp(len(*g) - 1)
}

func (g *gainHeap) pop() gainEntry {
	h := *g
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*g = h
	if n > 0 {
		h.siftDown(0)
	}
	return top
}

// fmMove records one accepted move of a pass: the vertex and its gain at
// move time. The pass keeps the full sequence to roll back to the best
// prefix; the differential fuzz reads it to pin move-order equivalence
// against the legacy heap reference.
type fmMove struct {
	v    int32
	gain float64
}

// csr is a compact vertex → incident-net index: row v is
// dat[off[v]:off[v+1]], net indices ascending. That is the same per-vertex
// order the append-grown [][]int32 incidence produced, which the gain and
// tie summations rely on for bit-identical float accumulation.
type csr struct {
	off []int32
	dat []int32
}

func (c *csr) row(v int32) []int32 { return c.dat[c.off[v]:c.off[v+1]] }

// grown returns s resized to n elements, reallocating only on capacity
// growth. Contents are unspecified; callers re-initialize what they read.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func bitGet(b []uint64, i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }
func bitSet(b []uint64, i int32)      { b[i>>6] |= 1 << (uint32(i) & 63) }

// fmMaxBuckets caps the bucket count so degenerate weight distributions
// cannot blow up the dense bucket array; wider ("big") buckets stay exact
// through the within-bucket heap order.
const fmMaxBuckets = 4096

// bucketQueue is the FM gain priority structure (PR 9). Entries are spread
// across dense gain buckets by a per-pass monotone quantizer — a strictly
// higher bucket implies a strictly higher gain — and each bucket is a small
// gainHeap carrying the full (gain desc, tie desc, vertex asc) order, so
// popping the maximum of the highest non-empty bucket reproduces the old
// single global heap's pop order bit for bit while keeping every sift
// logarithmic in one bucket's population instead of the whole pass's push
// volume. With uniform net weights the quantizer step is the weight itself
// (gains live on that lattice, so each bucket is one exact gain level and
// the mini-heaps only break look-ahead ties); with non-uniform weights the
// span is split evenly across at most fmMaxBuckets buckets and the heap
// order supplies exactness inside each.
type bucketQueue struct {
	lo      float64 // lowest representable gain (-max weighted degree)
	inv     float64 // 1/step; 0 collapses everything into bucket 0
	buckets []gainHeap
	maxB    int // highest bucket that may be non-empty
	size    int // queued entries, stale included
	live    int // vertices whose latest entry is still queued
}

func (b *bucketQueue) reset(nb int, lo, step float64) {
	if cap(b.buckets) < nb {
		nw := make([]gainHeap, nb)
		copy(nw, b.buckets[:cap(b.buckets)])
		b.buckets = nw
	}
	b.buckets = b.buckets[:nb]
	for i := range b.buckets {
		b.buckets[i] = b.buckets[i][:0]
	}
	b.lo = lo
	b.inv = 0
	if step > 0 {
		b.inv = 1 / step
	}
	b.maxB = -1
	b.size = 0
	b.live = 0
}

// idx maps a gain to its bucket. Truncation and clamping are both monotone,
// so bucket order can never contradict gain order even at the span edges.
func (b *bucketQueue) idx(g float64) int {
	i := int((g-b.lo)*b.inv + 0.5)
	if i < 0 {
		return 0
	}
	if i >= len(b.buckets) {
		return len(b.buckets) - 1
	}
	return i
}

func (b *bucketQueue) push(e gainEntry) {
	i := b.idx(e.gain)
	b.buckets[i].push(e)
	if i > b.maxB {
		b.maxB = i
	}
	b.size++
}

// pop returns the queue's maximum entry by (gain, tie, vertex), live or
// stale — exactly what the global heap's pop returned.
func (b *bucketQueue) pop() (gainEntry, bool) {
	for b.maxB >= 0 {
		bk := &b.buckets[b.maxB]
		if len(*bk) == 0 {
			b.maxB--
			continue
		}
		b.size--
		return bk.pop(), true
	}
	return gainEntry{}, false
}

// compact drops every entry failing isLive and re-heapifies the survivors
// in place. Only stale entries are removed and live keys form a strict
// total order, so the pop sequence callers observe is unchanged.
func (b *bucketQueue) compact(isLive func(gainEntry) bool) {
	b.size = 0
	for i := 0; i <= b.maxB; i++ {
		bk := b.buckets[i]
		n := 0
		for _, e := range bk {
			if isLive(e) {
				bk[n] = e
				n++
			}
		}
		bk = bk[:n]
		bk.init()
		b.buckets[i] = bk
		b.size += n
	}
	for b.maxB >= 0 && len(b.buckets[b.maxB]) == 0 {
		b.maxB--
	}
}

// fmScratch is the reusable per-pass working state of the FM engine (PR
// 9): the CSR incidence, side counts, gains, stamps, the locked bitset,
// the tie-code memo, the bucketed gain queue, and the per-move dedup
// buffers. One scratch serves one Bipartition call at a time; a
// ScratchPool recycles them across the quadrisection tree. Buffers grow
// amortized and every pass re-initializes the regions it reads, so reuse
// can never leak state between calls.
type fmScratch struct {
	inc     csr
	pins    csr // net → pins, one slab (same order as h.Nets rows)
	incCur  []int32
	nets    []fmNet
	verts   []fmVert
	locked  []uint64 // bitset of locked ∪ fixed vertices
	touched []int32
	seq     []fmMove
	bq      bucketQueue
	stats   Stats
}

// fmNet packs everything the FM inner loops read about a net — weight,
// side counts, the look-ahead tie code (both sides, 2 bits each), and the
// code's replay history (the code before its last change and that
// change's sequence number) — into one 24-byte record, so a random net
// index touches one cache line instead of one line per parallel array.
type fmNet struct {
	w    float64
	cnt  [2]int32
	code uint8
	old  uint8 // code before the last change
	_    [2]byte
	chg  uint32 // code-change sequence number of the last change
}

// fmVert is the matching per-vertex record: current gain, the staleness
// stamp, the per-move touch epoch, the code-change sequence number at the
// vertex's last gain update, and the live flag. 24 bytes.
type fmVert struct {
	gain    float64
	stamp   uint32
	touchEp uint32 // move epoch of the vertex's last touch (push dedup)
	upd     uint32 // code-change sequence number at the last gain update
	flags   uint32 // fmLive: the vertex's latest queue entry is still queued
}

const fmLive uint32 = 1

// tieTab maps a one-sided tie code b to the factors of the two adds its
// net contributes to the tie sum: t += w*tieTab[b][0]; t += w*tieTab[b][1]
// is bit-exact against the legacy branchy += / -= pair, with no branch on
// the code. w*1 == w and w*(-1) == -w exactly, t + (-w) is IEEE-identical
// to t - w, and a zero factor adds a signed zero, which never changes t
// (the sums here start at +0 and cannot produce -0). b == 3 (both
// verdicts) keeps the legacy's two dependent adds, since (t+w)-w is not t
// in floats; every other code's second add is the zero.
var tieTab = [4][2]float64{{0, 0}, {1, 0}, {-1, 0}, {1, -1}}

// buildIncidence fills sc.inc with h's vertex → net index, ascending net
// order per vertex (identical to what incidence() returns, minus the
// per-vertex allocations), and slabs h's pin lists into sc.pins so the
// move loop walks one contiguous array instead of chasing per-net slice
// headers.
func (sc *fmScratch) buildIncidence(h *Hypergraph) {
	n := h.NumV
	sc.inc.off = grown(sc.inc.off, n+1)
	off := sc.inc.off
	clear(off)
	for _, net := range h.Nets {
		for _, v := range net {
			off[v+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	sc.inc.dat = grown(sc.inc.dat, int(off[n]))
	sc.incCur = grown(sc.incCur, n)
	cur := sc.incCur
	copy(cur, off[:n])
	for i, net := range h.Nets {
		for _, v := range net {
			sc.inc.dat[cur[v]] = int32(i)
			cur[v]++
		}
	}

	nn := len(h.Nets)
	sc.pins.off = grown(sc.pins.off, nn+1)
	po := sc.pins.off
	po[0] = 0
	for i, net := range h.Nets {
		po[i+1] = po[i] + int32(len(net))
	}
	sc.pins.dat = grown(sc.pins.dat, int(po[nn]))
	for i, net := range h.Nets {
		copy(sc.pins.dat[po[i]:po[i+1]], net)
	}
}

// refine runs FM passes on part in place until a pass yields no
// improvement or maxPasses is hit.
func refine(h *Hypergraph, part []int8, opt Options, sc *fmScratch) {
	sc.buildIncidence(h)
	totalArea := 0.0
	for _, a := range h.Area {
		totalArea += a
	}
	target := totalArea * opt.TargetFrac
	lo := target - totalArea*opt.Tolerance
	hi := target + totalArea*opt.Tolerance

	for pass := 0; pass < maxPasses; pass++ {
		if !fmPass(h, part, lo, hi, sc) {
			break
		}
	}
}

// fmPass performs one Fiduccia–Mattheyses pass over sc.inc (call
// sc.buildIncidence first); reports improvement. Its observable behavior —
// the accepted move sequence in sc.seq, the final part, and the return
// value — is bit-identical to the legacy global-heap engine, kept test-only
// as fmPassReference and pinned by FuzzFMPassEquivalence. The argument, in
// brief (DESIGN §5.12 has the full version):
//
//   - The lazy heap's semantics reduce to "pop the maximum (gain, tie,
//     -vertex) key among queued entries; discard stale ones", where a
//     vertex's live key is the one from its latest push. bucketQueue's
//     quantizer is monotone and within-bucket order is the exact key
//     order, so its pop sequence is the same sequence.
//   - Pushes are deduplicated per move: no pop happens between a move's
//     gain updates, so of a neighbor's several updates only the last
//     (gain, tie) snapshot is observable. The legacy key carries the tie
//     as of the vertex's last update, and later nets of the same move can
//     flip tie codes without touching the vertex's gain again, so the
//     flush replays the tie: a net whose codes changed after the update
//     contributes the code it had before that change.
//   - Compaction removes only stale entries, which no pop sequence can
//     observe, at a deterministic (size-based) trigger.
func fmPass(h *Hypergraph, part []int8, lo, hi float64, sc *fmScratch) bool {
	n := h.NumV
	nn := len(h.Nets)
	inc := &sc.inc

	// Packed per-net state: weight, cleared side counts and tie code in
	// one record (h.netWeight's nil-Weight convention is baked in here).
	sc.nets = grown(sc.nets, nn)
	nets := sc.nets
	if h.Weight != nil {
		for i, w := range h.Weight {
			nets[i] = fmNet{w: w}
		}
	} else {
		for i := range nets {
			nets[i] = fmNet{w: 1}
		}
	}
	for i, net := range h.Nets {
		c := &nets[i].cnt
		for _, v := range net {
			c[part[v]]++
		}
	}

	// Packed per-vertex state. gain would not strictly need the clearing
	// (it is written before it is read), but zeroing whole records is one
	// memclr.
	sc.verts = grown(sc.verts, n)
	verts := sc.verts
	clear(verts)
	// blocked = locked ∪ fixed: one bitset probe replaces the separate
	// locked and Fixed loads on the per-pin hot path. The mover itself is
	// locked before its nets are walked, which also subsumes the u != v
	// skip the update loops used to carry.
	sc.locked = grown(sc.locked, (n+63)/64)
	blocked := sc.locked
	clear(blocked)
	sc.touched = sc.touched[:0]
	sc.seq = sc.seq[:0]

	// Initial gains, side-0 area, and the gain span for the quantizer: a
	// vertex's gain is always a subset-sum of +-w over its incident nets,
	// so +-(max weighted degree) bounds every gain this pass can see.
	area0 := 0.0
	maxSpan := 0.0
	for v := int32(0); v < int32(n); v++ {
		if part[v] == 0 {
			area0 += h.Area[v]
		}
		if h.Fixed[v] != -1 {
			bitSet(blocked, v)
			continue
		}
		s := part[v]
		g := 0.0
		sw := 0.0
		for _, ni := range inc.row(v) {
			nt := &nets[ni]
			w := nt.w
			if nt.cnt[s] == 1 {
				g += w
			}
			if nt.cnt[1-s] == 0 {
				g -= w
			}
			sw += math.Abs(w)
		}
		verts[v].gain = g
		if sw > maxSpan {
			maxSpan = sw
		}
	}

	// Quantizer setup: uniform weights put gains on an exact w0 lattice
	// (one gain level per bucket); otherwise split the span evenly across
	// at most fmMaxBuckets big buckets.
	uniform := true
	w0 := 1.0
	if h.Weight != nil && nn > 0 {
		w0 = h.Weight[0]
		for _, w := range h.Weight {
			if w != w0 {
				uniform = false
				break
			}
		}
	}
	nb := 1
	step := 0.0
	if maxSpan > 0 {
		span := 2 * maxSpan
		if uniform && w0 > 0 && span/w0 < float64(fmMaxBuckets-1) {
			step = w0
			nb = int(span/w0+0.5) + 1
		} else {
			nb = 2*n + 1
			if nb > fmMaxBuckets {
				nb = fmMaxBuckets
			}
			step = span / float64(nb-1)
		}
	}
	sc.bq.reset(nb, -maxSpan, step)

	// The look-ahead tie (lookAheadGain) depends on a vertex only through
	// its side, so each net contributes one of four per-side verdicts:
	// add w, subtract w, both, or nothing. Those verdicts are precomputed
	// into tieCode (2 bits per net per side) and refreshed in O(1) at each
	// count change, turning the tie evaluation — the FM profile leader at
	// 100k+ vertices — into a byte test per incident net. The summation
	// below replays the original's adds in the original order, so every
	// tie value is bit-identical to a lookAheadGain call at the same point.
	//
	// A net's codes are non-zero only while a side count sits in the
	// critical band {1, 2} — only nets at or next to the cut. inBand gates
	// setCode on the band so moves over internal nets (both sides >= 3
	// pins) skip the refresh entirely: codes were zero and stay zero.
	// Activation when a net enters the band is O(1), one setCode call.
	const (
		tiePlus  uint8 = 1 // net would become uncuttable in one more move
		tieMinus uint8 = 2 // net's lone far-side pin gets stranded deeper
	)
	inBand := func(a, b int32) bool {
		return (a >= 1 && a <= 2) || (b >= 1 && b <= 2)
	}
	setCode := func(ni int32) {
		nt := &nets[ni]
		var code uint8
		for s := 0; s < 2; s++ {
			var b uint8
			if nt.cnt[s] == 2 && nt.cnt[1-s] > 0 {
				b = tiePlus
			}
			if nt.cnt[1-s] == 1 {
				b |= tieMinus
			}
			code |= b << (2 * uint(s))
		}
		nt.code = code
	}
	// Codes start zero from the fmNet reset above; only in-band nets get
	// a build.
	for ni := int32(0); ni < int32(nn); ni++ {
		if inBand(nets[ni].cnt[0], nets[ni].cnt[1]) {
			setCode(ni)
		}
	}
	// cseq numbers the pass's code changes; a net records the number of
	// its last change (chg) and the codes it had before (old), a vertex
	// the number current at its last gain update (upd). The counter
	// cannot wrap: each change is one (mover, incident net) pair and a
	// pass moves each vertex at most once, so it stays below the pin
	// count, which the int32 CSR offsets already bound.
	var cseq uint32
	// tieOf replays v's tie as of its last gain update: a net whose codes
	// changed after that update contributes the codes it had before the
	// change. A net's codes change at most once per move (rows are
	// deduplicated) and only the mover's nets change, so for a vertex
	// updated during the current move old is exactly the code the legacy
	// engine's eager evaluation read. Before the first move no net has
	// changed (every chg and upd is 0), so the same walk serves the
	// initial pushes.
	tieOf := func(v int32) float64 {
		var t float64
		sh := uint(part[v]) * 2
		upd := verts[v].upd
		for _, ni := range inc.row(v) {
			nt := &nets[ni]
			code := nt.code
			if nt.chg > upd {
				code = nt.old
			}
			f := &tieTab[(code>>sh)&3]
			t += nt.w * f[0]
			t += nt.w * f[1]
		}
		return t
	}
	// evalTie is the tie evaluator the pass actually calls: the bare
	// replay walk on the production path, and a differential-checked
	// variant only under the tieCheck test hook. The check compares each
	// replayed tie with the reference lookAheadGain recorded into refTie
	// at the vertex's last gain update (or before the first move, for the
	// initial pushes); refTie stays nil on the production path, so the
	// hook's global load never enters the hot closures.
	evalTie := tieOf
	var refTie []float64
	if tieCheck {
		refTie = make([]float64, n)
		for v := int32(0); v < int32(n); v++ {
			refTie[v] = lookAheadGain(inc, nets, part, v)
		}
		evalTie = func(v int32) float64 {
			t := tieOf(v)
			if ref := refTie[v]; math.Float64bits(ref) != math.Float64bits(t) {
				panic(fmt.Sprintf("replayed tie diverged from lookAheadGain at the last update: v=%d replay=%v ref=%v", v, t, ref))
			}
			return t
		}
	}

	for v := int32(0); v < int32(n); v++ {
		if !bitGet(blocked, v) {
			sc.stats.Pushes++
			vt := &verts[v]
			vt.stamp++
			vt.flags |= fmLive
			sc.bq.live++
			sc.bq.push(gainEntry{gain: vt.gain, tie: evalTie(v), v: v, stamp: vt.stamp})
		}
	}

	// noteUpdate defers the tie: it only stamps the vertex with the code
	// sequence number of the update. The move's flush walks each touched
	// vertex once and replays the codes its nets had at that stamp.
	var moveEp uint32
	noteUpdate := func(u int32, d float64) {
		sc.stats.GainUpdates++
		vt := &verts[u]
		vt.gain += d
		vt.upd = cseq
		if vt.touchEp != moveEp {
			vt.touchEp = moveEp
			sc.touched = append(sc.touched, u)
		}
		if refTie != nil {
			refTie[u] = lookAheadGain(inc, nets, part, u)
		}
	}

	cum, bestCum, bestIdx := 0.0, 0.0, -1
	for {
		// Compact once stale entries dominate; the trigger depends only on
		// queue counters, so it is deterministic.
		if sc.bq.size > 64 && sc.bq.size > 3*sc.bq.live {
			sc.bq.compact(func(e gainEntry) bool {
				vt := &verts[e.v]
				return vt.flags&fmLive != 0 && e.stamp == vt.stamp
			})
			sc.stats.Compactions++
		}
		ent, ok := sc.bq.pop()
		if !ok {
			break
		}
		sc.stats.Pops++
		v := ent.v
		if bitGet(blocked, v) || ent.stamp != verts[v].stamp {
			sc.stats.StalePops++
			continue
		}
		verts[v].flags &^= fmLive
		sc.bq.live--
		// Balance check for moving v to the other side.
		var na0 float64
		if part[v] == 0 {
			na0 = area0 - h.Area[v]
		} else {
			na0 = area0 + h.Area[v]
		}
		if na0 < lo || na0 > hi {
			continue // cannot move now; a later better state may allow it,
			// but classic FM skips — acceptable with tolerance windows
		}
		from := part[v]
		to := 1 - from
		moveEp++
		bitSet(blocked, v) // locking v first lets the pin loops drop u != v

		// FM gain-update rules, before and after the move.
		for _, ni := range inc.row(v) {
			nt := &nets[ni]
			w := nt.w
			net := sc.pins.row(ni)
			cf, ct := nt.cnt[from], nt.cnt[to]
			if ct == 0 {
				for _, u := range net {
					if !bitGet(blocked, u) {
						noteUpdate(u, w)
					}
				}
			} else if ct == 1 {
				for _, u := range net {
					if part[u] == to && !bitGet(blocked, u) {
						noteUpdate(u, -w)
					}
				}
			}
			nt.cnt[from] = cf - 1
			nt.cnt[to] = ct + 1
			if inBand(cf, ct) || inBand(cf-1, ct+1) {
				// The net's codes change (inBand is symmetric in its
				// arguments, so the pre/post test needs no side mapping):
				// keep the old ones for the flush's replay.
				cseq++
				nt.old, nt.chg = nt.code, cseq
				setCode(ni)
			}
			if cf == 1 {
				for _, u := range net {
					if !bitGet(blocked, u) {
						noteUpdate(u, -w)
					}
				}
			} else if cf == 2 {
				for _, u := range net {
					if part[u] == from && !bitGet(blocked, u) {
						noteUpdate(u, w)
					}
				}
			}
		}
		part[v] = int8(to)
		area0 = na0
		// Deduplicated deferred pushes: one entry per neighbor this move
		// touched, carrying its final gain and last-update tie — the only
		// snapshot the legacy engine's pops could observe. The tie walk
		// replays the codes as of that update, once per touched vertex.
		for _, u := range sc.touched {
			sc.stats.Pushes++
			vt := &verts[u]
			vt.stamp++
			if vt.flags&fmLive == 0 {
				vt.flags |= fmLive
				sc.bq.live++
			}
			sc.bq.push(gainEntry{gain: vt.gain, tie: evalTie(u), v: u, stamp: vt.stamp})
		}
		sc.touched = sc.touched[:0]
		cum += ent.gain
		sc.seq = append(sc.seq, fmMove{v, ent.gain})
		if cum > bestCum+1e-12 {
			bestCum = cum
			bestIdx = len(sc.seq) - 1
		}
	}

	// Roll back to the best prefix.
	for i := len(sc.seq) - 1; i > bestIdx; i-- {
		v := sc.seq[i].v
		part[v] = 1 - part[v]
	}
	return bestIdx >= 0 && bestCum > 1e-12
}

// lookAheadGain computes a Krishnamurthy-style second-level gain: the
// weight of cut nets that would become *removable in one more move* (two
// pins on v's side) minus nets that a move would make harder to uncut.
// It is used purely as a tie-break among equal first-level gains.
//
// This is the reference form. fmPass evaluates the same sum through the
// per-net tieCode memo (codes refreshed at every critical-band count
// change), which replays these adds in this order and is therefore
// bit-identical; TestTieCodeMatchesLookAhead pins the equivalence.
func lookAheadGain(inc *csr, nets []fmNet, part []int8, v int32) float64 {
	var t float64
	s := part[v]
	for _, ni := range inc.row(v) {
		nt := &nets[ni]
		if nt.cnt[s] == 2 && nt.cnt[1-s] > 0 {
			t += nt.w // after moving v, one partner move uncuts the net
		}
		if nt.cnt[1-s] == 1 {
			t -= nt.w // moving v strands the lone far-side pin deeper
		}
	}
	return t
}
