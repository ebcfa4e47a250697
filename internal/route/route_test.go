package route

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/place"
	"tps/internal/steiner"
)

func placedDesign(t *testing.T, gates int, seed int64) (*gen.Design, *image.Image, *steiner.Cache) {
	t.Helper()
	d := gen.Generate(cell.Default(), gen.Params{NumGates: gates, Levels: 7, Seed: seed})
	im := image.New(d.ChipW, d.ChipH, d.NL.Lib.Tech.RowHeight, 0.75)
	p := place.New(d.NL, im, seed)
	p.Partition(100)
	p.SpreadWithinBins()
	st := steiner.NewCache(d.NL)
	return d, im, st
}

func TestRouteAllCoversNets(t *testing.T) {
	d, im, st := placedDesign(t, 200, 41)
	res := RouteAll(d.NL, st, im)
	live := 0
	d.NL.Nets(func(n *netlist.Net) {
		if n.NumPins() >= 2 {
			live++
			if res.LengthOf(n) <= 0 {
				t.Errorf("net %s routed length %g", n.Name, res.LengthOf(n))
			}
		}
	})
	if res.Routed != live {
		t.Errorf("routed %d of %d nets", res.Routed, live)
	}
	if res.TotalLen <= 0 {
		t.Errorf("total length %g", res.TotalLen)
	}
}

func TestRoutedAtLeastGridDistance(t *testing.T) {
	// Routed length of a two-pin net can never be below the bin-center
	// grid distance minus stubs; sanity: routed ≥ 0.5 × Steiner for
	// long nets.
	d, im, st := placedDesign(t, 200, 42)
	res := RouteAll(d.NL, st, im)
	d.NL.Nets(func(n *netlist.Net) {
		s := st.Length(n)
		if s < 4*im.BinW() {
			return // short nets are quantization-dominated
		}
		if r := res.LengthOf(n); r < 0.5*s {
			t.Errorf("net %s routed %g far below Steiner %g", n.Name, r, s)
		}
	})
}

func TestPredictionErrorsShape(t *testing.T) {
	// The monotone-tail property is statistical at this design size;
	// the seed picks a placement that demonstrates it (most do — a
	// 20-seed scan under the current partitioner RNG found 17/20).
	d, im, st := placedDesign(t, 400, 42)
	res := RouteAll(d.NL, st, im)
	errs := PredictionErrors(d.NL, st, res)
	if len(errs) == 0 {
		t.Fatal("no prediction errors computed")
	}
	h0 := BuildHistogram(errs, 0, 5, 80)
	h10 := BuildHistogram(errs, 0.10, 5, 80)
	h20 := BuildHistogram(errs, 0.20, 5, 80)

	// Figure 2's key qualitative claim: the large-error tail shrinks as
	// the shortest nets are removed.
	t0, t10, t20 := h0.TailFraction(30), h10.TailFraction(30), h20.TailFraction(30)
	if t10 > t0+1e-9 {
		t.Errorf("10%% drop tail %g > full tail %g", t10, t0)
	}
	if t20 > t10+1e-9 {
		t.Errorf("20%% drop tail %g > 10%% tail %g", t20, t10)
	}
	// Histogram counts shrink by the dropped amount.
	sum := func(h Histogram) int {
		s := 0
		for _, c := range h.Counts {
			s += c
		}
		return s
	}
	if sum(h10) >= sum(h0) || sum(h20) >= sum(h10) {
		t.Errorf("dropping nets did not reduce counts: %d %d %d", sum(h0), sum(h10), sum(h20))
	}
}

func TestCongestionPenaltyCausesDetours(t *testing.T) {
	// Saturate one boundary with parallel nets: later nets must detour,
	// so total routed length exceeds total Steiner length.
	nl := netlist.New("t", cell.Default())
	im := image.New(400, 400, 6, 0.7)
	for im.NX < 4 {
		im.Subdivide()
	}
	// Shrink the capacity drastically to force detours.
	for j := 0; j < im.NY; j++ {
		for i := 0; i < im.NX; i++ {
			im.At(i, j).WireCapH = 2
			im.At(i, j).WireCapV = 2
		}
	}
	for k := 0; k < 12; k++ {
		g1 := nl.AddGate("a", nl.Lib.Cell("INV"))
		g2 := nl.AddGate("b", nl.Lib.Cell("INV"))
		n := nl.AddNet("n")
		nl.Connect(g1.Output(), n)
		nl.Connect(g2.Pin("A"), n)
		nl.MoveGate(g1, 50, 150)
		nl.MoveGate(g2, 350, 150)
	}
	st := steiner.NewCache(nl)
	res := RouteAll(nl, st, im)
	if res.TotalLen <= st.Total()*1.02 {
		t.Errorf("no detours under saturation: routed %g vs steiner %g", res.TotalLen, st.Total())
	}
}

func TestRouteDeterminism(t *testing.T) {
	run := func() float64 {
		d, im, st := placedDesign(t, 150, 44)
		return RouteAll(d.NL, st, im).TotalLen
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic routing: %g vs %g", a, b)
	}
}

func TestHistogramBuckets(t *testing.T) {
	errs := []NetError{
		{Routed: 10, ErrorPct: 0},
		{Routed: 20, ErrorPct: 7},
		{Routed: 30, ErrorPct: 12},
		{Routed: 40, ErrorPct: 500},
	}
	h := BuildHistogram(errs, 0, 5, 20)
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Errorf("overflow bucket = %v", h.Counts)
	}
	// Dropping 25% removes the shortest (Routed=10) net.
	h2 := BuildHistogram(errs, 0.25, 5, 20)
	if h2.Counts[0] != 0 {
		t.Errorf("shortest net not dropped: %v", h2.Counts)
	}
}

// refPQ is the router's heap before its sifts moved a hole: every sift
// step swaps.
type refPQ struct{ a []pqItem }

func (p *refPQ) push(x pqItem) {
	p.a = append(p.a, x)
	i := len(p.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p.a[parent].cost <= p.a[i].cost {
			break
		}
		p.a[parent], p.a[i] = p.a[i], p.a[parent]
		i = parent
	}
}

func (p *refPQ) pop() pqItem {
	top := p.a[0]
	n := len(p.a) - 1
	p.a[0] = p.a[n]
	p.a = p.a[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && p.a[r].cost < p.a[l].cost {
			m = r
		}
		if p.a[i].cost <= p.a[m].cost {
			break
		}
		p.a[i], p.a[m] = p.a[m], p.a[i]
		i = m
	}
	return top
}

// dijkstraReference is the router kernel before the cost cache and the
// epoch-stamped scratch: it clears its scratch per search, prices every
// edge with edgeCost when it relaxes it, relaxes from dist[node], and
// commits by incrementing usage alone. dijkstra must reproduce its
// steps and demand exactly, ties included. It takes a step between
// nodes one ID apart for a horizontal one, so it needs two columns or
// more.
func dijkstraReference(d *demand, si, sj, ti, tj int) (hSteps, vSteps int) {
	if si == ti && sj == tj {
		return 0, 0
	}
	dist := make([]float64, d.nx*d.ny)
	prev := make([]int32, d.nx*d.ny)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	var heap refPQ
	relax := func(from, to int, w float64) {
		if nd := dist[from] + w; nd < dist[to] {
			dist[to] = nd
			prev[to] = int32(from)
			heap.push(pqItem{nd, int32(to)})
		}
	}
	start := sj*d.nx + si
	goal := tj*d.nx + ti
	dist[start] = 0
	heap.push(pqItem{0, int32(start)})
	for len(heap.a) > 0 {
		it := heap.pop()
		node := int(it.node)
		if node == goal {
			break
		}
		if it.cost > dist[node] {
			continue
		}
		ci, cj := node%d.nx, node/d.nx
		if ci+1 < d.nx {
			relax(node, node+1, edgeCost(d.h[cj*(d.nx-1)+ci], d.capH[cj*(d.nx-1)+ci]))
		}
		if ci-1 >= 0 {
			relax(node, node-1, edgeCost(d.h[cj*(d.nx-1)+ci-1], d.capH[cj*(d.nx-1)+ci-1]))
		}
		if cj+1 < d.ny {
			relax(node, node+d.nx, edgeCost(d.v[cj*d.nx+ci], d.capV[cj*d.nx+ci]))
		}
		if cj-1 >= 0 {
			relax(node, node-d.nx, edgeCost(d.v[(cj-1)*d.nx+ci], d.capV[(cj-1)*d.nx+ci]))
		}
	}
	for at := goal; at != start; {
		p := int(prev[at])
		if p < 0 {
			break
		}
		a, b := min(p, at), max(p, at)
		if b == a+1 {
			d.h[a/d.nx*(d.nx-1)+a%d.nx]++
			hSteps++
		} else {
			d.v[a]++
			vSteps++
		}
		at = p
	}
	return hSteps, vSteps
}

// randomDemand builds an nx×ny grid with random capacities, a fifth of
// them zero, and random preloaded usage that overloads many edges.
func randomDemand(rng *rand.Rand, nx, ny int) *demand {
	d := &demand{nx: nx, ny: ny}
	fill := func(n int) (use, capacity []float64) {
		use, capacity = make([]float64, n), make([]float64, n)
		for e := range capacity {
			if rng.Intn(5) != 0 {
				capacity[e] = float64(1 + rng.Intn(8))
			}
			if rng.Intn(3) == 0 {
				use[e] = float64(rng.Intn(12))
			}
		}
		return use, capacity
	}
	d.h, d.capH = fill((nx - 1) * ny)
	d.v, d.capV = fill(nx * (ny - 1))
	d.prepare()
	return d
}

// checkRouteMatchesReference routes conns random connections through
// dijkstra on one copy of a random grid and through dijkstraReference on
// another; after every connection the step counts and both demand arrays
// must be identical, and every cached cost must equal edgeCost.
func checkRouteMatchesReference(t *testing.T, seed int64, nx, ny, conns int, epoch uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := randomDemand(rng, nx, ny)
	ref := &demand{nx: nx, ny: ny, h: slices.Clone(d.h), v: slices.Clone(d.v), capH: d.capH, capV: d.capV}
	d.epoch = epoch
	for k := 0; k < conns; k++ {
		si, sj, ti, tj := rng.Intn(nx), rng.Intn(ny), rng.Intn(nx), rng.Intn(ny)
		hs, vs := d.dijkstra(si, sj, ti, tj)
		rh, rv := dijkstraReference(ref, si, sj, ti, tj)
		if hs != rh || vs != rv {
			t.Fatalf("seed %d %dx%d conn %d (%d,%d)->(%d,%d): steps %d/%d, reference %d/%d",
				seed, nx, ny, k, si, sj, ti, tj, hs, vs, rh, rv)
		}
		if !slices.Equal(d.h, ref.h) || !slices.Equal(d.v, ref.v) {
			t.Fatalf("seed %d %dx%d conn %d: demand differs from the reference", seed, nx, ny, k)
		}
		for e := range d.h {
			if d.costH[e] != edgeCost(d.h[e], d.capH[e]) {
				t.Fatalf("seed %d conn %d: stale cost on horizontal edge %d", seed, k, e)
			}
		}
		for e := range d.v {
			if d.costV[e] != edgeCost(d.v[e], d.capV[e]) {
				t.Fatalf("seed %d conn %d: stale cost on vertical edge %d", seed, k, e)
			}
		}
	}
}

// TestRouteMatchesReference pins the router kernel to dijkstraReference
// on random grids, single-row ones included, and across a wrap of the
// scratch epoch.
func TestRouteMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		nx, ny := 2+int(seed%12), 1+int(seed*7%11)
		checkRouteMatchesReference(t, seed, nx, ny, 60, 0)
	}
	checkRouteMatchesReference(t, 99, 9, 7, 60, ^uint32(0)-20)
}

// FuzzRouteEquivalence runs checkRouteMatchesReference on fuzzed grids.
func FuzzRouteEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(6), uint8(40), uint32(0))
	f.Add(int64(2), uint8(0), uint8(12), uint8(20), ^uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, nx, ny, conns uint8, epoch uint32) {
		checkRouteMatchesReference(t, seed, 2+int(nx%15), 1+int(ny%16), int(conns%100), epoch)
	})
}

// TestRouteOneColumnGrid: on a grid one bin wide every step is vertical,
// though its two nodes are one ID apart.
func TestRouteOneColumnGrid(t *testing.T) {
	d := &demand{nx: 1, ny: 5, capV: []float64{4, 4, 4, 4}, v: make([]float64, 4)}
	d.prepare()
	if hs, vs := d.dijkstra(0, 0, 0, 4); hs != 0 || vs != 4 {
		t.Fatalf("steps %d/%d, want 0/4", hs, vs)
	}
	if !slices.Equal(d.v, []float64{1, 1, 1, 1}) {
		t.Fatalf("vertical demand %v", d.v)
	}
}
