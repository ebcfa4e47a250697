// Package congestion estimates wirability the way Table 1 reports it:
// Steiner-tree wiring is rasterized onto the bin grid as canonical
// L-shapes, each bin-boundary crossing consumes wiring capacity, and the
// result is summarized as peak and average horizontal/vertical wires cut
// per cut line. The per-edge demand is also deposited into the placement
// image so transforms (circuit relocation, congestion-driven decisions)
// can see it.
//
// Rasterization fans out over the worker pool with per-chunk shard grids:
// each worker deposits crossings into its own copy of the grid, and the
// shards are merged in chunk order afterwards. Crossing counts are integer
// increments (exact in float64) and per-net lengths are summed serially
// in live-net order, so the report is bit-identical for any worker count.
//
// Every pass rasterizes every live net. What stays incremental is the
// Steiner cache underneath: a pass rebuilds only the trees the edits
// since the last pass made stale.
package congestion

import (
	"math"

	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/steiner"
)

// Report summarizes wiring demand. Horiz counts horizontal wires crossing
// vertical cut lines (peak and average over the NX−1 internal lines);
// Vert counts vertical wires crossing horizontal cut lines.
type Report struct {
	HorizPeak, HorizAvg float64
	VertPeak, VertAvg   float64
	// OverflowEdges counts bin edges whose demand exceeds capacity.
	OverflowEdges int
	// TotalWireUm is the total rasterized wire length.
	TotalWireUm float64
}

// Analyze rasterizes every live net's Steiner tree onto im (replacing
// prior wire usage) and returns the cut-line summary, serially.
func Analyze(nl *netlist.Netlist, st *steiner.Cache, im *image.Image) Report {
	return AnalyzeN(nl, st, im, 1)
}

// AnalyzeN is Analyze with the rasterization fanned out over at most
// workers goroutines. The report and the bins' WireUsed fields are
// bit-identical to the serial pass.
func AnalyzeN(nl *netlist.Netlist, st *steiner.Cache, im *image.Image, workers int) Report {
	a := NewAnalyzer(nl, st, im)
	a.Workers = workers
	return a.Analyze()
}

// summarize computes the cut-line summary from the image's WireUsed state.
func summarize(im *image.Image, totalWireUm float64) Report {
	r := Report{TotalWireUm: totalWireUm}
	// Horizontal wires cross vertical boundaries: right-edge usage of
	// column i is the crossing count of the line between columns i, i+1.
	if im.NX > 1 {
		for i := 0; i < im.NX-1; i++ {
			var c float64
			for j := 0; j < im.NY; j++ {
				c += im.At(i, j).WireUsedH
			}
			r.HorizAvg += c
			if c > r.HorizPeak {
				r.HorizPeak = c
			}
		}
		r.HorizAvg /= float64(im.NX - 1)
	}
	if im.NY > 1 {
		for j := 0; j < im.NY-1; j++ {
			var c float64
			for i := 0; i < im.NX; i++ {
				c += im.At(i, j).WireUsedV
			}
			r.VertAvg += c
			if c > r.VertPeak {
				r.VertPeak = c
			}
		}
		r.VertAvg /= float64(im.NY - 1)
	}
	for j := 0; j < im.NY; j++ {
		for i := 0; i < im.NX; i++ {
			b := im.At(i, j)
			if b.WireUsedH > b.WireCapH || b.WireUsedV > b.WireCapV {
				r.OverflowEdges++
			}
		}
	}
	return r
}

// rasterizeNet deposits every edge of tree t into the h/v crossing grids
// and returns the rasterized length.
func rasterizeNet(im *image.Image, h, v []float64, t *steiner.Tree) float64 {
	var sum float64
	for _, e := range t.Edges {
		p, q := t.Nodes[e.U], t.Nodes[e.V]
		sum += rasterizeL(im, h, v, p, q)
	}
	return sum
}

// rasterizeL deposits the canonical L-shape (horizontal at p.Y, then
// vertical at q.X) of edge p→q into the h/v crossing grids and returns its
// length.
func rasterizeL(im *image.Image, h, v []float64, p, q steiner.Point) float64 {
	length := math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
	// Horizontal run at y = p.Y from p.X to q.X.
	depositH(im, h, p.Y, p.X, q.X)
	// Vertical run at x = q.X from p.Y to q.Y.
	depositV(im, v, q.X, p.Y, q.Y)
	return length
}

// boundaries returns the range of bin boundaries k·size, k in [1, n−1],
// that can lie strictly inside (a, b) under the 1e-9 rule. The range is
// clamped in float64 before converting, so a run to a far-off pin costs
// no more than one across the grid; ok is false when it is empty.
func boundaries(a, b, size float64, n int) (lo, hi int, ok bool) {
	l := max(math.Ceil(a/size-1e-9), 1)
	h := min(math.Floor(b/size+1e-9), float64(n-1))
	if !(l <= h) {
		return 0, 0, false
	}
	return int(l), int(h), true
}

// depositH adds one horizontal wire crossing for every vertical bin
// boundary strictly inside (xa, xb) at height y.
func depositH(im *image.Image, grid []float64, y, xa, xb float64) {
	if xa > xb {
		xa, xb = xb, xa
	}
	bw := im.BinW()
	_, j := im.Loc((xa+xb)/2, y)
	lo, hi, ok := boundaries(xa, xb, bw, im.NX)
	if !ok {
		return
	}
	for i := lo; i <= hi; i++ {
		// Boundary between column i−1 and i.
		if bnd := float64(i) * bw; bnd <= xa+1e-9 || bnd >= xb-1e-9 {
			continue
		}
		grid[j*im.NX+i-1]++
	}
}

// depositV adds one vertical wire crossing for every horizontal bin
// boundary strictly inside (ya, yb) at x.
func depositV(im *image.Image, grid []float64, x, ya, yb float64) {
	if ya > yb {
		ya, yb = yb, ya
	}
	bh := im.BinH()
	i, _ := im.Loc(x, (ya+yb)/2)
	lo, hi, ok := boundaries(ya, yb, bh, im.NY)
	if !ok {
		return
	}
	for j := lo; j <= hi; j++ {
		if bnd := float64(j) * bh; bnd <= ya+1e-9 || bnd >= yb-1e-9 {
			continue
		}
		grid[(j-1)*im.NX+i]++
	}
}
