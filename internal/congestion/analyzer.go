package congestion

import (
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/par"
	"tps/internal/steiner"
)

// Analyzer is the congestion engine a flow keeps across its statuses.
// Every Analyze is a full pass: it builds the stale Steiner trees,
// rasterizes every live net into per-chunk shard grids, merges the
// shards into the image in chunk order, and adds the per-net lengths in
// live-net order. The shard grids and the per-net scratch are reused
// across calls, so a repeated pass allocates next to nothing.
//
// The Analyzer is not safe for concurrent use; parallelism lives inside
// the pass.
type Analyzer struct {
	nl *netlist.Netlist
	st *steiner.Cache
	im *image.Image

	// Workers bounds the pass's fan-out.
	Workers int

	// Passes counts Analyze calls.
	Passes int

	nets           []*netlist.Net
	netLen         []float64 // per live net, in nets order
	shardH, shardV [][]float64
}

// NewAnalyzer creates a congestion analyzer over the netlist, Steiner
// cache, and bin image.
func NewAnalyzer(nl *netlist.Netlist, st *steiner.Cache, im *image.Image) *Analyzer {
	return &Analyzer{nl: nl, st: st, im: im, Workers: 1}
}

// InvalidateAll does nothing: every Analyze is a full pass. It remains
// because perfbench's analyzer probe still calls it.
func (a *Analyzer) InvalidateAll() {}

// Analyze rasterizes every live net's Steiner tree onto the image
// (replacing prior wire usage) and returns the cut-line summary. Workers
// write only their own nets' slots and chunk-private shard grids.
// Crossing counts are whole numbers, so the merged grids and the report
// are bit-identical for any worker count.
func (a *Analyzer) Analyze() Report {
	a.Passes++
	a.st.PrepareAll(a.Workers)
	im := a.im
	cells := im.NX * im.NY

	a.nets = a.nets[:0]
	a.nl.Nets(func(n *netlist.Net) { a.nets = append(a.nets, n) })
	if cap(a.netLen) < len(a.nets) {
		a.netLen = make([]float64, len(a.nets))
	}
	a.netLen = a.netLen[:len(a.nets)]

	nc := par.NumChunks(a.Workers, len(a.nets))
	a.shardH = growShards(a.shardH, nc, cells)
	a.shardV = growShards(a.shardV, nc, cells)
	par.For(a.Workers, len(a.nets), func(chunk, lo, hi int) {
		h, v := a.shardH[chunk], a.shardV[chunk]
		for k := lo; k < hi; k++ {
			a.netLen[k] = rasterizeNet(im, h, v, a.st.Tree(a.nets[k]))
		}
	})

	for j := 0; j < im.NY; j++ {
		for i := 0; i < im.NX; i++ {
			idx := j*im.NX + i
			var sh, sv float64
			for s := 0; s < nc; s++ {
				sh += a.shardH[s][idx]
				sv += a.shardV[s][idx]
			}
			b := im.At(i, j)
			b.WireUsedH, b.WireUsedV = sh, sv
		}
	}
	var total float64
	for _, l := range a.netLen {
		total += l
	}
	return summarize(im, total)
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
			clear(shards[s])
		}
	}
	return shards
}
