// Package relocate implements the circuit-relocation utility of §4.6: a
// min-cost network optimization over the bin grid that frees space in a
// congested bin by rippling non-critical cells outward along shortest
// paths toward bins with spare capacity, without hurting worst-case
// timing. Two transforms call it: relieve fixes every overfull bin, and
// decongest pushes cells out of congestion hot spots. Each call builds its
// own Relocator, which files the movable gates by bin from the placement
// it starts on.
package relocate

import (
	"sort"

	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/timing"
)

// Relocator couples the bin image with the timing analyzer so only
// non-critical cells — cells with positive slack — move. A relocator
// serves one transform call: its bin index is built by New and kept
// current across its own moves only, so the placement must not change
// under it between calls.
type Relocator struct {
	NL  *netlist.Netlist
	Eng *timing.Engine
	Im  *image.Image
	// Moves counts cells relocated since construction.
	Moves int

	// binGates maps a flat bin index to the movable gates inside it. List
	// order within a bin is arbitrary — moveOneCell sorts candidates by
	// the strict (area, ID) order, so every choice stays deterministic.
	binGates [][]*netlist.Gate

	// augment's search scratch, reused within the call: dist and prev hold
	// a bin's state only while seen[bin] == epoch.
	dist  []float64
	prev  []int32
	seen  []uint32
	epoch uint32
	heap  pathHeap
	path  []int
}

// New returns a relocator over the current placement, with every movable
// gate filed under the bin that holds it.
func New(nl *netlist.Netlist, eng *timing.Engine, im *image.Image) *Relocator {
	r := &Relocator{NL: nl, Eng: eng, Im: im, binGates: make([][]*netlist.Gate, im.NumBins())}
	nl.Gates(func(g *netlist.Gate) {
		if g.Fixed || g.IsPad() {
			return
		}
		ix, iy := im.Loc(g.X, g.Y)
		flat := iy*im.NX + ix
		r.binGates[flat] = append(r.binGates[flat], g)
	})
	return r
}

// FreeSpace tries to create at least `need` µm² of free capacity in the
// bin containing (x, y) by relocating non-critical cells along min-cost
// (distance-weighted) augmenting paths to bins with spare capacity.
// Returns true if the space is available afterwards.
func (r *Relocator) FreeSpace(x, y, need float64) bool {
	bi, bj := r.Im.Loc(x, y)
	for iter := 0; iter < 32; iter++ {
		b := r.Im.At(bi, bj)
		if b.Free() >= need {
			return true
		}
		if !r.augment(bi, bj) {
			return b.Free() >= need
		}
	}
	return r.Im.At(bi, bj).Free() >= need
}

// RelieveAll fixes every overfull bin (used as the stand-alone transform).
// Returns the number of cells moved.
func (r *Relocator) RelieveAll(slack float64) int {
	before := r.Moves
	for _, flat := range r.Im.Overfull(slack) {
		ix, iy := flat%r.Im.NX, flat/r.Im.NX
		for iter := 0; iter < 64; iter++ {
			b := r.Im.At(ix, iy)
			if b.AreaUsed <= b.AreaCap*(1+slack) {
				break
			}
			if !r.augment(ix, iy) {
				break
			}
		}
	}
	return r.Moves - before
}

// pathNode is a Dijkstra state over bins.
type pathNode struct {
	cost float64
	flat int
}

// pathHeap is a typed min-heap on cost. Its sifts make the comparisons
// container/heap makes with Less = cost <, in the same order, so bins of
// equal cost pop in the same order; it boxes nothing, and it moves a hole
// instead of swapping.
type pathHeap []pathNode

func (h *pathHeap) push(x pathNode) {
	a := append(*h, x)
	j := len(a) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(x.cost < a[i].cost) {
			break
		}
		a[j] = a[i]
		j = i
	}
	a[j] = x
	*h = a
}

func (h *pathHeap) pop() pathNode {
	a := *h
	n := len(a) - 1
	top, x := a[0], a[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].cost < a[j].cost {
			j = j2
		}
		if !(a[j].cost < x.cost) {
			break
		}
		a[i] = a[j]
		i = j
	}
	a[i] = x
	*h = a[:n]
	return top
}

// augment finds the min-cost path from the source bin to the nearest bin
// with spare capacity and ripples one cell across each hop, so each bin on
// the path keeps its occupancy while the source loses one cell. Returns
// false when no augmenting path or movable cell exists.
func (r *Relocator) augment(si, sj int) bool {
	nx, ny := r.Im.NX, r.Im.NY
	if n := nx * ny; len(r.seen) != n {
		r.dist = make([]float64, n)
		r.prev = make([]int32, n)
		r.seen = make([]uint32, n)
	}
	r.epoch++
	if r.epoch == 0 {
		clear(r.seen)
		r.epoch = 1
	}
	start := sj*nx + si
	r.seen[start], r.dist[start], r.prev[start] = r.epoch, 0, -1
	h := r.heap[:0]
	h.push(pathNode{0, start})
	goal := -1
	stepCost := r.Im.BinW() + r.Im.BinH()
	for len(h) > 0 {
		it := h.pop()
		if it.cost > r.dist[it.flat] {
			continue
		}
		ci, cj := it.flat%nx, it.flat/nx
		b := r.Im.At(ci, cj)
		// A usable sink has meaningful spare room.
		if it.flat != start && b.Free() > b.AreaCap*0.1 {
			goal = it.flat
			break
		}
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			ti, tj := ci+d[0], cj+d[1]
			if ti < 0 || ti >= nx || tj < 0 || tj >= ny {
				continue
			}
			tf := tj*nx + ti
			if nd := it.cost + stepCost; r.seen[tf] != r.epoch || nd < r.dist[tf] {
				r.seen[tf], r.dist[tf], r.prev[tf] = r.epoch, nd, int32(it.flat)
				h.push(pathNode{nd, tf})
			}
		}
	}
	r.heap = h
	if goal < 0 {
		return false
	}

	// Collect the path source→goal.
	path := r.path[:0]
	for at := goal; at != -1; at = int(r.prev[at]) {
		path = append(path, at)
	}
	r.path = path
	// path is goal..start; reverse to start..goal.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}

	// Ripple: move one cell from each bin to the next bin along the path.
	moved := false
	for i := 0; i+1 < len(path); i++ {
		fi, fj := path[i]%nx, path[i]/nx
		ti, tj := path[i+1]%nx, path[i+1]/nx
		if r.moveOneCell(fi, fj, ti, tj) {
			moved = true
		} else if i == 0 {
			return false // source bin has nothing movable
		}
	}
	return moved
}

// moveOneCell relocates the best (smallest non-critical) movable cell from
// bin (fi,fj) to the center of bin (ti,tj).
func (r *Relocator) moveOneCell(fi, fj, ti, tj int) bool {
	t := r.NL.Lib.Tech
	from := fj*r.Im.NX + fi
	cands := r.binGates[from]
	if len(cands) == 0 {
		return false
	}
	// Prefer small cells with healthy slack: they disturb timing least
	// and exactly implement "move non-critical cells away" (§4.6).
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Area(t) != cands[j].Area(t) {
			return cands[i].Area(t) < cands[j].Area(t)
		}
		return cands[i].ID < cands[j].ID
	})
	for k, g := range cands {
		if r.Eng.GateSlack(g) <= 0 {
			continue
		}
		cx, cy := r.Im.Center(ti, tj)
		r.Im.Withdraw(g.X, g.Y, g.Area(t))
		r.NL.MoveGate(g, cx, cy)
		r.Im.Deposit(cx, cy, g.Area(t))
		// Keep the index current across our own move.
		r.binGates[from] = append(cands[:k], cands[k+1:]...)
		to := tj*r.Im.NX + ti
		r.binGates[to] = append(r.binGates[to], g)
		r.Moves++
		return true
	}
	return false
}
