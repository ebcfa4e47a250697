// Package image implements the bin-based placement image of §2 (Figure 1).
//
// The chip area is divided into a grid of bins. Each bin tracks abstract
// capacities only — area capacity/usage, horizontal and vertical wiring
// capacity/usage, and blockage — so that circuits can move between bins
// without a detailed legalization step. The grid refines gradually
// (Subdivide) as the flow converges, which is exactly how the paper trades
// efficiency up-front for precision late. The placement *status* number of
// §5 (0–100) is derived from the refinement level.
package image

import (
	"fmt"
	"math"
)

// Bin holds the abstracted contents of one grid cell (BIN_DATA in Fig. 1).
type Bin struct {
	// AreaCap is the placeable cell area in µm² (after blockage).
	AreaCap float64
	// AreaUsed is the cell area currently assigned to the bin.
	AreaUsed float64
	// WireCapH / WireCapV are routing capacities in tracks across the
	// bin's right edge (H) and top edge (V).
	WireCapH, WireCapV float64
	// WireUsedH / WireUsedV are current routing demands on those edges.
	WireUsedH, WireUsedV float64
	// Blocked is the area in µm² blocked by macros / power structure.
	Blocked float64
}

// Free returns the unused placeable area.
func (b *Bin) Free() float64 { return b.AreaCap - b.AreaUsed }

// Image is the bin grid over the chip area.
type Image struct {
	// W, H are the chip dimensions in µm.
	W, H float64
	// NX, NY are the grid dimensions.
	NX, NY int
	bins   []Bin
	// Level is the refinement level: the grid is 2^Level × 2^Level
	// (clamped by MaxLevel). Level 0 = one bin covering the chip.
	Level int
	// MaxLevel is the level at which bins reach roughly row height,
	// i.e. detailed-placement resolution; status 100.
	MaxLevel int
	// Utilization is the target fill ratio applied to AreaCap.
	Utilization float64
}

// MaxGridLevel is the finest refinement level a design frame may need:
// a 4096×4096 bin grid. Generated designs of 200k gates need level 8.
const MaxGridLevel = 12

// LevelFor returns the MaxLevel of a chip h µm high: the level at which
// bin height first drops to at most 2 rows of rowHeight (4·rowHeight),
// and at least 1. Halving is exact in floating point, so each step
// compares h/2^level exactly, without forming 2^level as an integer.
// h must be finite.
func LevelFor(h, rowHeight float64) int {
	level := 0
	for b := h; b > 2*rowHeight*2; b /= 2 {
		level++
	}
	return max(level, 1)
}

// New creates a level-0 image (one bin) for a chip of w×h µm with the given
// target utilization (e.g. 0.7). rowHeight determines MaxLevel: refinement
// stops when bin height ≈ 2 rows (LevelFor).
func New(w, h, rowHeight, utilization float64) *Image {
	if !(w > 0) || !(h > 0) || math.IsInf(w, 1) || math.IsInf(h, 1) {
		panic(fmt.Sprintf("image: bad chip size %g×%g", w, h))
	}
	im := &Image{W: w, H: h, MaxLevel: LevelFor(h, rowHeight), Utilization: utilization}
	im.reset(1, 1)
	im.Level = 0
	return im
}

func (im *Image) reset(nx, ny int) {
	im.NX, im.NY = nx, ny
	im.bins = make([]Bin, nx*ny)
	binArea := (im.W / float64(nx)) * (im.H / float64(ny))
	// Wiring capacity: tracks per µm of bin edge, a generous default the
	// congestion analyzer compares demand against.
	const tracksPerUm = 1.2
	for i := range im.bins {
		im.bins[i].AreaCap = binArea * im.Utilization
		im.bins[i].WireCapH = (im.H / float64(ny)) * tracksPerUm
		im.bins[i].WireCapV = (im.W / float64(nx)) * tracksPerUm
	}
}

// BinW returns the current bin width in µm.
func (im *Image) BinW() float64 { return im.W / float64(im.NX) }

// BinH returns the current bin height in µm.
func (im *Image) BinH() float64 { return im.H / float64(im.NY) }

// NumBins returns NX*NY.
func (im *Image) NumBins() int { return len(im.bins) }

// At returns the bin at grid coordinates (ix, iy).
func (im *Image) At(ix, iy int) *Bin { return &im.bins[iy*im.NX+ix] }

// Index maps grid coordinates to the flat bin index.
func (im *Image) Index(ix, iy int) int { return iy*im.NX + ix }

// Loc maps a chip coordinate to grid coordinates, clamped to the grid.
func (im *Image) Loc(x, y float64) (ix, iy int) {
	return clampBin(x/im.BinW(), im.NX), clampBin(y/im.BinH(), im.NY)
}

// clampBin truncates a coordinate in bin units to a bin index in
// [0, n−1]. It clamps in float64 before converting, since converting a
// quotient past the int range (a pin far off the chip) is undefined;
// for every in-range quotient this is the truncation itself.
func clampBin(f float64, n int) int {
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(n-1):
		return n - 1
	}
	return int(f)
}

// BinAt returns the bin containing chip coordinate (x, y).
func (im *Image) BinAt(x, y float64) *Bin {
	ix, iy := im.Loc(x, y)
	return im.At(ix, iy)
}

// Center returns the chip coordinates of the center of bin (ix, iy).
func (im *Image) Center(ix, iy int) (x, y float64) {
	return (float64(ix) + 0.5) * im.BinW(), (float64(iy) + 0.5) * im.BinH()
}

// Subdivide doubles the grid resolution in both dimensions, redistributing
// blockage but resetting usage (callers re-deposit cell area from the
// netlist, which is the source of truth). It reports whether refinement
// happened (false at MaxLevel).
func (im *Image) Subdivide() bool {
	if im.Level >= im.MaxLevel {
		return false
	}
	old := im.bins
	onx := im.NX
	im.Level++
	im.reset(im.NX*2, im.NY*2)
	for iy := 0; iy < im.NY; iy++ {
		for ix := 0; ix < im.NX; ix++ {
			ob := &old[(iy/2)*onx+ix/2]
			nb := im.At(ix, iy)
			nb.Blocked = ob.Blocked / 4
			nb.AreaCap -= nb.Blocked * im.Utilization
			if nb.AreaCap < 0 {
				nb.AreaCap = 0
			}
		}
	}
	return true
}

// Status returns the placement progress number of §5: 0 at level 0, 100 at
// MaxLevel, linear in refinement level between.
func (im *Image) Status() int {
	return int(math.Round(100 * float64(im.Level) / float64(im.MaxLevel)))
}

// AddBlockage marks rect [x0,x1)×[y0,y1) as blocked for placement,
// reducing area capacity of overlapped bins proportionally to overlap.
func (im *Image) AddBlockage(x0, y0, x1, y1 float64) {
	bw, bh := im.BinW(), im.BinH()
	for iy := 0; iy < im.NY; iy++ {
		for ix := 0; ix < im.NX; ix++ {
			bx0, by0 := float64(ix)*bw, float64(iy)*bh
			ox := overlap1d(x0, x1, bx0, bx0+bw)
			oy := overlap1d(y0, y1, by0, by0+bh)
			if ox > 0 && oy > 0 {
				b := im.At(ix, iy)
				blk := ox * oy
				b.Blocked += blk
				// Capacity is utilization-scaled, so blocked physical
				// area removes blk×Utilization of capacity.
				b.AreaCap -= blk * im.Utilization
				if b.AreaCap < 0 {
					b.AreaCap = 0
				}
			}
		}
	}
}

func overlap1d(a0, a1, b0, b1 float64) float64 {
	lo, hi := math.Max(a0, b0), math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Deposit adds cell area a to the bin containing (x, y).
func (im *Image) Deposit(x, y, a float64) { im.BinAt(x, y).AreaUsed += a }

// Withdraw removes cell area a from the bin containing (x, y).
func (im *Image) Withdraw(x, y, a float64) {
	b := im.BinAt(x, y)
	b.AreaUsed -= a
	if b.AreaUsed < 0 {
		b.AreaUsed = 0
	}
}

// ClearUsage zeroes all area and wire usage (before a re-deposit pass).
func (im *Image) ClearUsage() {
	for i := range im.bins {
		im.bins[i].AreaUsed = 0
		im.bins[i].WireUsedH = 0
		im.bins[i].WireUsedV = 0
	}
}

// SnapshotUsage copies the per-bin area/wire usage triplets (AreaUsed,
// WireUsedH, WireUsedV) into dst's storage, growing it only when it is
// too small, and returns the copy. Together with the current level it
// lets the scenario engine's checkpoint layer restore the image
// bit-exactly after a rejected transform (which may have deposited
// speculative gate area).
func (im *Image) SnapshotUsage(dst []float64) []float64 {
	s := dst[:0]
	for i := range im.bins {
		s = append(s, im.bins[i].AreaUsed, im.bins[i].WireUsedH, im.bins[i].WireUsedV)
	}
	return s
}

// RestoreUsage writes back a SnapshotUsage capture. It panics if the grid
// has been refined since the snapshot (rollback across a Subdivide is not
// supported; structural steps cannot be checkpointed).
func (im *Image) RestoreUsage(s []float64) {
	if len(s) != 3*len(im.bins) {
		panic("image: RestoreUsage across a grid refinement")
	}
	for i := range im.bins {
		im.bins[i].AreaUsed = s[3*i]
		im.bins[i].WireUsedH = s[3*i+1]
		im.bins[i].WireUsedV = s[3*i+2]
	}
}

// Overfull returns flat indices of bins whose usage exceeds capacity by
// more than slack (fraction of capacity, e.g. 0.0 for any overflow).
func (im *Image) Overfull(slack float64) []int {
	var out []int
	for i := range im.bins {
		b := &im.bins[i]
		if b.AreaUsed > b.AreaCap*(1+slack) {
			out = append(out, i)
		}
	}
	return out
}

// TotalCap returns the total placeable area.
func (im *Image) TotalCap() float64 {
	var s float64
	for i := range im.bins {
		s += im.bins[i].AreaCap
	}
	return s
}

// TotalUsed returns the total deposited cell area.
func (im *Image) TotalUsed() float64 {
	var s float64
	for i := range im.bins {
		s += im.bins[i].AreaUsed
	}
	return s
}
