// Package route is a congestion-aware global router over the bin grid. It
// exists for two reasons the paper states: (1) Figure 2 compares the
// Steiner wire-length prediction against the *final routed* length of each
// net, so a router has to produce that length; (2) wirability sign-off
// ("we could route all chip partitions after TPS") needs an overflow
// check. Nets are decomposed along their Steiner topology into two-pin
// connections, each routed by Dijkstra over bin-edge costs that rise with
// utilization.
package route

import (
	"sort"

	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/par"
	"tps/internal/steiner"
)

// job is one net queued for routing with its Steiner estimate.
type job struct {
	n   *netlist.Net
	est float64
}

// Result holds per-net routed lengths and summary statistics.
type Result struct {
	lengths []float64 // by net ID, µm; -1 = unrouted/absent
	// TotalLen is the total routed wire length in µm.
	TotalLen float64
	// Overflows counts bin edges loaded beyond capacity after routing.
	Overflows int
	// Routed is the number of nets routed.
	Routed int
}

// LengthOf returns the routed length of net n (0 for single-pin nets).
func (r *Result) LengthOf(n *netlist.Net) float64 {
	if n.ID >= len(r.lengths) || r.lengths[n.ID] < 0 {
		return 0
	}
	return r.lengths[n.ID]
}

// demand tracks directed edge usage on the routing grid, plus the Dijkstra
// scratch arrays reused across the (strictly sequential) per-connection
// searches so the router allocates nothing in its inner loop.
type demand struct {
	nx, ny int
	h      []float64 // usage across vertical boundary right of (i,j): (nx-1)*ny
	v      []float64 // usage across horizontal boundary above (i,j): nx*(ny-1)
	capH   []float64
	capV   []float64
	// costH and costV cache edgeCost of every edge; commit refreshes the
	// one edge it loads.
	costH, costV []float64

	// dist and prev hold a node's search state only while seen[node] ==
	// epoch, so a search starts without clearing them.
	dist  []float64
	prev  []int32
	seen  []uint32
	epoch uint32
	heap  pq
}

func newDemand(im *image.Image) *demand {
	d := &demand{nx: im.NX, ny: im.NY}
	d.h = make([]float64, (d.nx-1)*d.ny)
	d.v = make([]float64, d.nx*(d.ny-1))
	d.capH = make([]float64, len(d.h))
	d.capV = make([]float64, len(d.v))
	for j := 0; j < d.ny; j++ {
		for i := 0; i < d.nx-1; i++ {
			d.capH[j*(d.nx-1)+i] = im.At(i, j).WireCapH
		}
	}
	for j := 0; j < d.ny-1; j++ {
		for i := 0; i < d.nx; i++ {
			d.capV[j*d.nx+i] = im.At(i, j).WireCapV
		}
	}
	d.prepare()
	return d
}

// prepare fills the cost caches from the current usage and sizes the
// search scratch.
func (d *demand) prepare() {
	d.costH = make([]float64, len(d.h))
	for e := range d.h {
		d.costH[e] = edgeCost(d.h[e], d.capH[e])
	}
	d.costV = make([]float64, len(d.v))
	for e := range d.v {
		d.costV[e] = edgeCost(d.v[e], d.capV[e])
	}
	d.dist = make([]float64, d.nx*d.ny)
	d.prev = make([]int32, d.nx*d.ny)
	d.seen = make([]uint32, d.nx*d.ny)
}

// cost returns the traversal cost of an edge given its usage/capacity:
// base 1 plus a steep congestion penalty.
func edgeCost(used, capacity float64) float64 {
	if capacity <= 0 {
		return 64
	}
	u := used / capacity
	switch {
	case u < 0.8:
		return 1
	case u < 1.0:
		return 1 + 4*(u-0.8)*5 // →5 at full
	default:
		return 5 + 16*(u-1)*8
	}
}

// RouteAll routes every live net and returns per-net routed lengths.
// The image's WireUsed fields are updated to the routed demand.
func RouteAll(nl *netlist.Netlist, st *steiner.Cache, im *image.Image) *Result {
	return RouteAllN(nl, st, im, 1)
}

// RouteAllN is RouteAll with the evaluation stages fanned out over at most
// workers goroutines: the Steiner trees that seed the route order and the
// per-connection decomposition are batch-built in parallel, and the final
// demand publication/overflow scan is chunked by row. The maze routing
// itself stays strictly sequential — each net's path depends on the demand
// committed by every net before it, and that ordering is the router's
// quality model — so routed lengths and overflow counts are bit-identical
// for any worker count.
func RouteAllN(nl *netlist.Netlist, st *steiner.Cache, im *image.Image, workers int) *Result {
	st.PrepareAll(workers)
	d := newDemand(im)
	res := &Result{lengths: make([]float64, nl.NetCap())}
	for i := range res.lengths {
		res.lengths[i] = -1
	}
	bw, bh := im.BinW(), im.BinH()

	// Route nets in a deterministic, long-first order so the big nets get
	// clean paths and short nets detour — short nets hurt less (§3).
	var jobs []job
	nl.Nets(func(n *netlist.Net) {
		if n.NumPins() < 2 {
			res.lengths[n.ID] = 0
			return
		}
		jobs = append(jobs, job{n, st.Length(n)})
	})
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].est != jobs[b].est {
			return jobs[a].est > jobs[b].est
		}
		return jobs[a].n.ID < jobs[b].n.ID
	})

	// escapeUm is the detailed-routing overhead per connection endpoint:
	// the escape from a pin to the routing grid plus via stubs. It is what
	// makes the *relative* prediction error of very short nets large while
	// barely affecting long ones — the effect Figure 2 shows.
	escapeUm := nl.Lib.Tech.RowHeight / 3

	for _, jb := range jobs {
		t := st.Tree(jb.n)
		var total float64
		for _, e := range t.Edges {
			p, q := t.Nodes[e.U], t.Nodes[e.V]
			if steiner.Dist(p, q) == 0 {
				continue
			}
			pi, pj := im.Loc(p.X, p.Y)
			qi, qj := im.Loc(q.X, q.Y)
			hs, vs := d.dijkstra(pi, pj, qi, qj)
			// Base length is the exact geometric run; congestion shows up
			// only as *extra* grid steps beyond the minimal path.
			detour := float64(hs-abs(qi-pi))*bw + float64(vs-abs(qj-pj))*bh
			if detour < 0 {
				detour = 0
			}
			total += steiner.Dist(p, q) + detour + 2*escapeUm
		}
		res.lengths[jb.n.ID] = total
		res.TotalLen += total
		res.Routed++
	}

	// Publish demand into the image and count overflows, chunked by row:
	// every row's bins are written by exactly one worker, and the integer
	// overflow subtotals merge in chunk order.
	res.Overflows += par.SumInts(workers, d.ny, func(_, jlo, jhi int) int {
		over := 0
		for j := jlo; j < jhi; j++ {
			for i := 0; i < d.nx-1; i++ {
				u := d.h[j*(d.nx-1)+i]
				im.At(i, j).WireUsedH = u
				if u > d.capH[j*(d.nx-1)+i] {
					over++
				}
			}
		}
		return over
	})
	res.Overflows += par.SumInts(workers, d.ny-1, func(_, jlo, jhi int) int {
		over := 0
		for j := jlo; j < jhi; j++ {
			for i := 0; i < d.nx; i++ {
				u := d.v[j*d.nx+i]
				im.At(i, j).WireUsedV = u
				if u > d.capV[j*d.nx+i] {
					over++
				}
			}
		}
		return over
	})
	return res
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	cost float64
	node int32
}

// pq is a hand-rolled binary min-heap over pqItem. The container/heap
// interface boxes every Push/Pop through interface{}, allocating on each
// edge relaxation in the router's innermost loop; a typed slice heap keeps
// the frontier allocation-free (the backing array is reused across
// searches). Tie-breaking follows strict cost comparison exactly like the
// old heap.Less, and the search is single-threaded, so results stay
// deterministic.
type pq struct {
	a []pqItem
}

func (p *pq) push(x pqItem) {
	p.a = append(p.a, x)
	i := len(p.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p.a[parent].cost <= x.cost {
			break
		}
		p.a[i] = p.a[parent]
		i = parent
	}
	p.a[i] = x
}

// pop sifts the last item down from the root through a hole: the
// comparisons of a swapping sift, with one write per level.
func (p *pq) pop() pqItem {
	top := p.a[0]
	n := len(p.a) - 1
	x := p.a[n]
	p.a = p.a[:n]
	if n == 0 {
		return top
	}
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
		if x.cost <= p.a[m].cost {
			break
		}
		p.a[i] = p.a[m]
		i = m
	}
	p.a[i] = x
	return top
}

// dijkstra routes one two-pin connection, commits its demand, and returns
// the number of horizontal and vertical grid steps on the chosen path.
func (d *demand) dijkstra(si, sj, ti, tj int) (hSteps, vSteps int) {
	if si == ti && sj == tj {
		return 0, 0
	}
	d.epoch++
	if d.epoch == 0 {
		clear(d.seen)
		d.epoch = 1
	}
	nx := d.nx
	start := sj*nx + si
	goal := tj*nx + ti
	d.seen[start], d.dist[start] = d.epoch, 0
	d.heap.a = d.heap.a[:0]
	d.heap.push(pqItem{0, int32(start)})
	for len(d.heap.a) > 0 {
		it := d.heap.pop()
		node := int(it.node)
		if node == goal {
			break
		}
		if it.cost > d.dist[node] {
			continue
		}
		// A pop that is not stale carries dist[node] as its cost.
		ci, cj := node%nx, node/nx
		if ci+1 < nx {
			d.relax(node, node+1, it.cost+d.costH[cj*(nx-1)+ci])
		}
		if ci > 0 {
			d.relax(node, node-1, it.cost+d.costH[cj*(nx-1)+ci-1])
		}
		if cj+1 < d.ny {
			d.relax(node, node+nx, it.cost+d.costV[node])
		}
		if cj > 0 {
			d.relax(node, node-nx, it.cost+d.costV[node-nx])
		}
	}
	// Walk back, committing demand.
	for at := goal; at != start; {
		if d.seen[at] != d.epoch {
			break // unreachable (degenerate grid); treat as direct
		}
		p := int(d.prev[at])
		d.commit(p, at)
		if dd := p - at; dd == nx || dd == -nx {
			vSteps++
		} else {
			hSteps++
		}
		at = p
	}
	return hSteps, vSteps
}

// relax offers node to a path cost of nd through from.
func (d *demand) relax(from, to int, nd float64) {
	if d.seen[to] != d.epoch || nd < d.dist[to] {
		d.seen[to] = d.epoch
		d.dist[to] = nd
		d.prev[to] = int32(from)
		d.heap.push(pqItem{nd, int32(to)})
	}
}

// commit adds one unit of demand on the edge between adjacent nodes a, b
// and refreshes its cached cost.
func (d *demand) commit(a, b int) {
	if b < a {
		a, b = b, a
	}
	if b-a == d.nx { // a vertical step; on a one-column grid b == a+1 too
		d.v[a]++
		d.costV[a] = edgeCost(d.v[a], d.capV[a])
	} else {
		e := a/d.nx*(d.nx-1) + a%d.nx
		d.h[e]++
		d.costH[e] = edgeCost(d.h[e], d.capH[e])
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
