package steiner

import (
	"tps/internal/netlist"
	"tps/internal/par"
)

// Cache lazily builds and memoizes one Steiner tree per net, invalidating
// exactly the nets affected by placement moves and netlist edits. It is the
// dynamic recalculation machinery of §3 ("the Steiner tree gets dynamically
// re-calculated when gate positions change as well as when new cells are
// created or old ones deleted").
//
// The aggregate query (Total) is computed when asked: it builds the stale
// trees and adds the live nets' lengths pairwise in a shape fixed by the
// net capacity alone, so its result does not depend on the worker count
// or on the order of the edits that came before it.
//
// The cache itself is not safe for concurrent use; parallelism lives in
// PrepareAll/PrepareNets, which batch-build invalid trees with a bounded
// worker pool and then leave the cache in a fully valid,
// read-only-queryable state. Tree construction is a pure function of the
// net's pin locations, so the batch result is identical to lazy serial
// construction — and a cache may start from trees built elsewhere (Seed),
// which any number of caches then share read-only.
type Cache struct {
	nl *netlist.Netlist
	// trees is indexed by net ID. A slot is only meaningful when the
	// matching tvalid flag is set; invalidation clears the flag but keeps
	// the Tree object, so the rebuild reuses its node/edge storage —
	// unless the slot is shared (installed by Seed): the cache never
	// writes into a shared tree, so its rebuild gets a private one.
	trees  []*Tree
	tvalid []bool
	shared []bool

	// builders hold per-chunk construction scratch for buildBatch (chunk k
	// uses builders[k]; par chunking is deterministic) plus one extra slot
	// for the serial lazy path in Tree().
	builders []builder
	// ptScratch is the per-chunk pin-point gather buffer, parallel to
	// builders.
	ptScratch [][]Point
	// staleScratch backs the stale-net collection in the Prepare paths.
	staleScratch []*netlist.Net

	// Workers bounds the fan-out used when batch-building stale trees for
	// the aggregate queries. 0 or 1 keeps every build on the calling
	// goroutine.
	Workers int

	// Rebuilds counts tree constructions since creation — tests use it to
	// prove incrementality. Seeded trees are not constructions.
	Rebuilds int
}

// NewCache creates a cache and subscribes it to the netlist.
func NewCache(nl *netlist.Netlist) *Cache {
	c := &Cache{nl: nl}
	nl.Observe(c)
	return c
}

// Close unsubscribes the cache.
func (c *Cache) Close() { c.nl.Unobserve(c) }

// BuildAll returns the tree of every live net of nl, indexed by net ID
// (nil at dead IDs), built as a Cache builds them, over at most workers
// goroutines.
func BuildAll(nl *netlist.Netlist, workers int) []*Tree {
	c := &Cache{nl: nl}
	c.PrepareAll(workers)
	return c.trees
}

// Seed installs prebuilt trees, indexed by net ID (nil entries are
// skipped), as valid shared slots. It is for a cache that has built
// nothing yet, on a netlist whose nets have exactly the pins, in pin
// order and place, that the trees were built from: a tree is a pure
// function of its net's pin points, so a seeded slot holds what a build
// would. The trees stay shared with every other cache seeded from them:
// the cache only reads them, and rebuilding a shared slot after an edit
// builds a private tree. Seeding does not count in Rebuilds.
func (c *Cache) Seed(trees []*Tree) {
	c.grow(len(trees) - 1)
	for id, t := range trees {
		if t != nil {
			c.trees[id], c.tvalid[id], c.shared[id] = t, true, true
		}
	}
}

// slot returns the tree a rebuild of net id writes into: the slot's own,
// or a new one when the slot is empty or shared. A shared slot's new tree
// takes the shared tree's capacities, so rebuilding an edited net, which
// mostly keeps its pin count, appends without regrowing.
func (c *Cache) slot(id int) *Tree {
	t := c.trees[id]
	switch {
	case t == nil:
		t = &Tree{}
	case c.shared[id]:
		t = &Tree{Nodes: make([]Point, 0, cap(t.Nodes)), Edges: make([]Edge, 0, cap(t.Edges))}
	default:
		return t
	}
	c.trees[id], c.shared[id] = t, false
	return t
}

func (c *Cache) grow(id int) {
	for len(c.trees) <= id {
		c.trees = append(c.trees, nil)
	}
	for len(c.tvalid) <= id {
		c.tvalid = append(c.tvalid, false)
	}
	for len(c.shared) <= id {
		c.shared = append(c.shared, false)
	}
}

// DirtyNets returns the number of live nets whose tree is stale: the
// trees the next Total or PrepareAll builds.
func (c *Cache) DirtyNets() int {
	n := 0
	c.nl.Nets(func(net *netlist.Net) {
		if net.ID >= len(c.tvalid) || !c.tvalid[net.ID] {
			n++
		}
	})
	return n
}

// PrepareAll builds every invalid tree of a live net, fanning the
// constructions out over at most workers goroutines. Each worker writes
// only its own nets' slots, so the result is race-free and identical to
// building the same trees serially. Returns the number of trees built.
// After PrepareAll, Tree and Length are pure reads until the next netlist
// change, which is what lets the timing and congestion evaluation layers
// query the cache from parallel workers.
func (c *Cache) PrepareAll(workers int) int {
	c.grow(c.nl.NetCap() - 1)
	stale := c.staleScratch[:0]
	c.nl.Nets(func(n *netlist.Net) {
		if !c.tvalid[n.ID] {
			stale = append(stale, n)
		}
	})
	c.staleScratch = stale
	c.buildBatch(workers, stale)
	return len(stale)
}

// PrepareNets builds the invalid trees among the given nets (which must be
// live), with the same bounded fan-out and determinism as PrepareAll but
// without scanning the whole netlist — O(len(nets)) instead of O(N). The
// incremental congestion analyzer uses it to refresh only the nets edited
// since its last pass.
func (c *Cache) PrepareNets(workers int, nets []*netlist.Net) int {
	if len(nets) == 0 {
		return 0
	}
	c.grow(c.nl.NetCap() - 1)
	stale := c.staleScratch[:0]
	for _, n := range nets {
		if !c.tvalid[n.ID] {
			stale = append(stale, n)
		}
	}
	c.staleScratch = stale
	c.buildBatch(workers, stale)
	return len(stale)
}

// buildBatch constructs the trees of the given stale nets in parallel.
// Each worker writes only its own nets' slots, rebuilding in place into
// the nets' existing private Tree objects with chunk-private builder
// scratch. Pin points are gathered from the netlist's CSR membership and
// position slabs — two flat array reads per pin instead of a pointer
// chase — which is why the CSR is refreshed (serially) before the
// fan-out.
func (c *Cache) buildBatch(workers int, stale []*netlist.Net) {
	if len(stale) == 0 {
		return
	}
	off, pinIDs := c.nl.PinCSR()
	posX, posY := c.nl.Positions()
	pinGate := c.nl.PinGates()
	nc := par.NumChunks(workers, len(stale))
	for len(c.builders) < nc {
		c.builders = append(c.builders, builder{})
		c.ptScratch = append(c.ptScratch, nil)
	}
	par.For(workers, len(stale), func(chunk, lo, hi int) {
		b := &c.builders[chunk]
		pts := c.ptScratch[chunk]
		for _, n := range stale[lo:hi] {
			id := n.ID
			pts = pts[:0]
			for _, pid := range pinIDs[off[id]:off[id+1]] {
				g := pinGate[pid]
				pts = append(pts, Point{posX[g], posY[g]})
			}
			b.buildInto(c.slot(id), pts)
			c.tvalid[id] = true
		}
		c.ptScratch[chunk] = pts
	})
	c.Rebuilds += len(stale)
}

// Tree returns the Steiner tree of net n, with tree node i corresponding
// to n.Pins()[i]. The tree is valid until the next change touching n.
func (c *Cache) Tree(n *netlist.Net) *Tree {
	c.grow(n.ID)
	if c.tvalid[n.ID] {
		return c.trees[n.ID]
	}
	if len(c.builders) == 0 {
		c.builders = append(c.builders, builder{})
		c.ptScratch = append(c.ptScratch, nil)
	}
	b := &c.builders[0]
	pts := c.ptScratch[0][:0]
	for _, p := range n.Pins() {
		pts = append(pts, Point{p.X(), p.Y()})
	}
	c.ptScratch[0] = pts
	t := c.slot(n.ID)
	b.buildInto(t, pts)
	c.tvalid[n.ID] = true
	c.Rebuilds++
	return t
}

// Length returns the Steiner wire length of net n in µm.
func (c *Cache) Length(n *netlist.Net) float64 { return c.Tree(n).Length }

// Total returns the total Steiner wire length of the live nets. Stale
// trees are batch-built in parallel (Workers); the lengths, indexed by net
// ID with 0 at dead IDs, are then added pairwise in place, in a shape
// fixed by NetCap alone, so the result is bit-identical for any worker
// count and for any interleaving of edits and queries.
func (c *Cache) Total() float64 {
	c.PrepareAll(c.Workers)
	n := c.nl.NetCap()
	if n == 0 {
		return 0
	}
	a := make([]float64, n)
	c.nl.Nets(func(net *netlist.Net) { a[net.ID] = c.trees[net.ID].Length })
	for w := 1; w < n; w *= 2 {
		for i := 0; i+w < n; i += 2 * w {
			a[i] += a[i+w]
		}
	}
	return a[0]
}

// InvalidateAll drops every cached tree; the next aggregate query rebuilds
// them, batched in parallel when Workers > 1.
func (c *Cache) InvalidateAll() {
	clear(c.tvalid)
}

// Invalidate drops the cached tree of net n.
func (c *Cache) Invalidate(n *netlist.Net) {
	c.grow(n.ID)
	c.tvalid[n.ID] = false
}

// GateMoved implements netlist.Observer.
func (c *Cache) GateMoved(g *netlist.Gate) {
	for _, p := range g.Pins {
		if p.Net != nil {
			c.Invalidate(p.Net)
		}
	}
}

// GateResized implements netlist.Observer. Sizes do not change pin
// locations at bin resolution, so trees stay valid.
func (c *Cache) GateResized(*netlist.Gate) {}

// NetChanged implements netlist.Observer.
func (c *Cache) NetChanged(n *netlist.Net) { c.Invalidate(n) }

// GateAdded implements netlist.Observer.
func (c *Cache) GateAdded(*netlist.Gate) {}

// GateRemoved implements netlist.Observer.
func (c *Cache) GateRemoved(*netlist.Gate) {}
