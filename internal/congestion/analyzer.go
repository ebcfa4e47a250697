package congestion

import (
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/par"
	"tps/internal/steiner"
)

// Analyzer is the stateful, incremental congestion engine. It keeps the
// rasterized footprint of every net — the exact list of bin-edge deposits
// its Steiner tree made — plus the merged crossing grids. On re-analysis
// it withdraws and re-deposits only the nets invalidated since the last
// call, falling back to the full parallel pass when the dirty fraction is
// large (or the bin grid was refined, which moves every boundary).
//
// Crossing counts are integer-valued, so withdraw/re-deposit arithmetic is
// exact in float64: the grids, the image's WireUsed fields, and the Report
// are bit-identical to AnalyzeN in both regimes, for any worker count.
//
// The Analyzer subscribes to the netlist to maintain its dirty set; it is
// not safe for concurrent use (parallelism lives inside the full pass).
type Analyzer struct {
	nl *netlist.Netlist
	st *steiner.Cache
	im *image.Image

	// Workers bounds the full-pass fan-out.
	Workers int

	// FullThreshold is the dirty fraction above which Analyze abandons the
	// withdraw/re-deposit path for the full parallel pass: withdrawing and
	// re-rasterizing most nets costs more than rebuilding the grids from
	// scratch with all workers.
	FullThreshold float64

	// FullPasses / IncrementalPasses count the regime taken by each
	// Analyze call — tests and flow logs use them to prove incrementality.
	FullPasses, IncrementalPasses int

	nx, ny int       // grid geometry the state below was built for
	h, v   []float64 // merged crossing grids, NX*NY cells each

	deposits [][]int32 // per net ID: encoded deposits (h: idx, v: idx+cells)
	netLen   []float64 // per net ID: rasterized length
	have     []bool    // per net ID: footprint currently in the grids

	dirty    []int
	isDirty  []bool
	allDirty bool
	primed   bool

	// full-pass scratch, reused across calls
	nets           []*netlist.Net
	shardH, shardV [][]float64
}

// NewAnalyzer creates an incremental congestion analyzer over the netlist,
// Steiner cache, and bin image, and subscribes it to netlist changes.
func NewAnalyzer(nl *netlist.Netlist, st *steiner.Cache, im *image.Image) *Analyzer {
	a := &Analyzer{
		nl: nl, st: st, im: im,
		Workers:       1,
		FullThreshold: 0.25,
		allDirty:      true,
	}
	nl.Observe(a)
	return a
}

// Close unsubscribes the analyzer.
func (a *Analyzer) Close() { a.nl.Unobserve(a) }

// DirtyNets returns the number of nets queued for re-rasterization: the
// cost of the next Analyze call in nets (NumNets when a full pass is
// pending).
func (a *Analyzer) DirtyNets() int {
	if a.allDirty || !a.primed {
		return a.nl.NumNets()
	}
	return len(a.dirty)
}

// InvalidateAll forces the next Analyze to run the full pass.
func (a *Analyzer) InvalidateAll() {
	for _, id := range a.dirty {
		a.isDirty[id] = false
	}
	a.dirty = a.dirty[:0]
	a.allDirty = true
}

func (a *Analyzer) growNet(id int) {
	for len(a.isDirty) <= id {
		a.isDirty = append(a.isDirty, false)
		a.deposits = append(a.deposits, nil)
		a.netLen = append(a.netLen, 0)
		a.have = append(a.have, false)
	}
}

func (a *Analyzer) markDirty(id int) {
	if a.allDirty {
		return
	}
	a.growNet(id)
	if !a.isDirty[id] {
		a.isDirty[id] = true
		a.dirty = append(a.dirty, id)
	}
}

// Analyze brings the congestion picture up to date and returns the
// cut-line summary. The image's WireUsed fields are refreshed either way.
func (a *Analyzer) Analyze() Report {
	a.growNet(a.nl.NetCap() - 1)
	live := a.nl.NumNets()
	geomChanged := a.nx != a.im.NX || a.ny != a.im.NY
	if !a.primed || geomChanged || a.allDirty ||
		float64(len(a.dirty)) > a.FullThreshold*float64(live) {
		a.FullPasses++
		a.full()
	} else {
		a.IncrementalPasses++
		a.incremental()
	}
	a.allDirty = false
	a.primed = true

	// Publish the grids into the image (assignment, so exactly the values
	// the full AnalyzeN pass would leave) and total the per-net lengths in
	// live-net ID order — the same addition sequence as the full pass.
	for j := 0; j < a.ny; j++ {
		for i := 0; i < a.nx; i++ {
			b := a.im.At(i, j)
			idx := j*a.nx + i
			b.WireUsedH = a.h[idx]
			b.WireUsedV = a.v[idx]
		}
	}
	var total float64
	a.nl.Nets(func(n *netlist.Net) { total += a.netLen[n.ID] })
	return summarize(a.im, total)
}

// full rebuilds the grids and every live net's footprint from scratch with
// the bounded worker pool. Workers write only their own nets' ID-indexed
// slots and chunk-private shard grids; shards merge in chunk order.
func (a *Analyzer) full() {
	a.st.PrepareAll(a.Workers)
	a.nx, a.ny = a.im.NX, a.im.NY
	cells := a.nx * a.ny

	// Every prior footprint is superseded.
	for id := range a.have {
		a.have[id] = false
		a.netLen[id] = 0
	}
	for _, id := range a.dirty {
		a.isDirty[id] = false
	}
	a.dirty = a.dirty[:0]

	a.nets = a.nets[:0]
	a.nl.Nets(func(n *netlist.Net) { a.nets = append(a.nets, n) })

	nc := par.NumChunks(a.Workers, len(a.nets))
	a.shardH = growShards(a.shardH, nc, cells)
	a.shardV = growShards(a.shardV, nc, cells)
	par.For(a.Workers, len(a.nets), func(chunk, lo, hi int) {
		h, v := a.shardH[chunk], a.shardV[chunk]
		for k := lo; k < hi; k++ {
			n := a.nets[k]
			rec := a.deposits[n.ID][:0]
			a.netLen[n.ID] = rasterizeNet(a.im, h, v, a.st.Tree(n), &rec)
			a.deposits[n.ID] = rec
			a.have[n.ID] = true
		}
	})

	if len(a.h) != cells {
		a.h = make([]float64, cells)
		a.v = make([]float64, cells)
	}
	for idx := 0; idx < cells; idx++ {
		var sh, sv float64
		for s := 0; s < nc; s++ {
			sh += a.shardH[s][idx]
			sv += a.shardV[s][idx]
		}
		a.h[idx] = sh
		a.v[idx] = sv
	}
}

// incremental withdraws the footprints of the dirty nets and re-deposits
// the live ones — O(dirty), exact integer arithmetic on the grids.
func (a *Analyzer) incremental() {
	cells := int32(a.nx * a.ny)
	a.nets = a.nets[:0]
	for _, id := range a.dirty {
		a.isDirty[id] = false
		if a.have[id] {
			for _, e := range a.deposits[id] {
				if e >= cells {
					a.v[e-cells]--
				} else {
					a.h[e]--
				}
			}
			a.have[id] = false
			a.netLen[id] = 0
		}
		if n := a.nl.NetByID(id); n != nil {
			a.nets = append(a.nets, n)
		}
	}
	a.dirty = a.dirty[:0]

	a.st.PrepareNets(a.Workers, a.nets)
	for _, n := range a.nets {
		rec := a.deposits[n.ID][:0]
		a.netLen[n.ID] = rasterizeNet(a.im, a.h, a.v, a.st.Tree(n), &rec)
		a.deposits[n.ID] = rec
		a.have[n.ID] = true
	}
}

// growShards returns a slice of nc zeroed grids of the given size, reusing
// prior allocations when the geometry is unchanged.
func growShards(shards [][]float64, nc, cells int) [][]float64 {
	for len(shards) < nc {
		shards = append(shards, nil)
	}
	shards = shards[:nc]
	for s := range shards {
		if len(shards[s]) != cells {
			shards[s] = make([]float64, cells)
		} else {
			for i := range shards[s] {
				shards[s][i] = 0
			}
		}
	}
	return shards
}

// GateMoved implements netlist.Observer.
func (a *Analyzer) GateMoved(g *netlist.Gate) {
	for _, p := range g.Pins {
		if p.Net != nil {
			a.markDirty(p.Net.ID)
		}
	}
}

// GateResized implements netlist.Observer. Footprints depend only on pin
// locations, which sizes do not change at bin resolution.
func (a *Analyzer) GateResized(*netlist.Gate) {}

// NetChanged implements netlist.Observer.
func (a *Analyzer) NetChanged(n *netlist.Net) { a.markDirty(n.ID) }

// GateAdded implements netlist.Observer (connections arrive as NetChanged).
func (a *Analyzer) GateAdded(*netlist.Gate) {}

// GateRemoved implements netlist.Observer (pins already disconnected, each
// net already reported through NetChanged).
func (a *Analyzer) GateRemoved(*netlist.Gate) {}
