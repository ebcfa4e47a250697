// Package delay implements the net- and gate-delay calculators that the
// incremental timing engine registers (§3): a lumped/distributed Elmore
// model for short wires, a two-moment (D2M-style) RC model for long wires,
// the load-independent gain-based model used early in the flow (§4.4, §5),
// and the statistical wire-load model that the SPR baseline's stand-alone
// synthesis step has to rely on.
package delay

import (
	"math"

	"tps/internal/cell"
	"tps/internal/netlist"
	"tps/internal/par"
	"tps/internal/steiner"
)

// intraBinFactor scales the intra-bin wire floor (see Calculator.BinDim).
const intraBinFactor = 0.35

// Mode selects the delay model in force.
type Mode int

const (
	// GainBased: gate delay d=(p+g·h)·τ from the asserted gain; wires are
	// free. Used before and during early placement.
	GainBased Mode = iota
	// WireLoad: loads estimated from a fanout-based wire-load model
	// (what stand-alone synthesis must use in the SPR baseline); no
	// per-sink wire delay.
	WireLoad
	// Actual: loads and per-sink delays from the Steiner tree, Elmore for
	// short wires, two-moment RC for long ones.
	Actual
)

func (m Mode) String() string {
	switch m {
	case GainBased:
		return "gain"
	case WireLoad:
		return "wireload"
	case Actual:
		return "actual"
	}
	return "?"
}

// rcPS converts Ω·fF to picoseconds.
func rcPS(rOhm, cFf float64) float64 { return rOhm * cFf / 1000 }

// WireLoadModel estimates net capacitance from fanout alone, as wire-load
// driven synthesis does. EstLenUm(f) = A·f^B µm of wire for f sinks.
type WireLoadModel struct {
	A, B float64
	Tech cell.Tech
}

// DefaultWLM returns a wire-load model roughly calibrated to the default
// technology and mid-size designs.
func DefaultWLM(t cell.Tech) *WireLoadModel {
	return &WireLoadModel{A: 60, B: 0.8, Tech: t}
}

// Cap returns the estimated wire capacitance in fF for a net with the
// given number of sinks.
func (w *WireLoadModel) Cap(fanout int) float64 {
	if fanout <= 0 {
		return 0
	}
	return w.Tech.CwFfPerUm * w.A * math.Pow(float64(fanout), w.B)
}

// netTiming caches the electrical view of one net under the Actual model.
type netTiming struct {
	load      float64   // total cap seen by the driver, fF
	sinkDelay []float64 // wire delay to each pin, aligned with net.Pins()
}

// Calculator computes gate arc delays and net wire delays under the
// current Mode. Under Actual it memoizes per-net Elmore/RC solutions and
// invalidates them through netlist observation, keeping queries incremental.
// A calculator on a fork of a netio.State may start from solutions that
// another calculator computed on an identical fork (Share, Install); it
// reads those shared slots and never writes them: re-solving one after
// an edit writes a private solution, as steiner.Cache does with its
// seeded trees.
type Calculator struct {
	Mode Mode
	Tech cell.Tech
	St   *steiner.Cache
	WLM  *WireLoadModel

	// BinDim, when positive, enables the §3 Rent-style intra-bin wire
	// estimate: pins that share a bin have coincident coordinates, so the
	// Steiner length under-reports the wire a k-pin net will eventually
	// need. Each net's load is floored at intraBinFactor·BinDim·(k−1) of
	// wire. The flow keeps BinDim equal to the current bin size, so the
	// correction shrinks automatically as placement refines.
	BinDim float64

	nl *netlist.Netlist
	// nets memoizes per-net solutions by net ID; a slot is meaningful only
	// while its valid flag is set. Invalidation clears the flag and keeps
	// the netTiming object so the next solve reuses its sinkDelay storage —
	// unless the slot is shared (installed by Install), which the next
	// solve replaces with a private object.
	nets   []*netTiming
	valid  []bool
	shared []bool

	// scratch holds per-chunk solver state for Prepare (chunk k uses
	// scratch[k]; par chunking is deterministic) plus slot 0 for the lazy
	// serial path.
	scratch []solveScratch
	// staleScratch backs the stale-net collection in Prepare.
	staleScratch []*netlist.Net

	// Solves counts RC solutions performed (incrementality metric).
	// Installed solutions are not solves.
	Solves int
}

// Solutions is a frozen set of Actual-mode net solutions, indexed by net
// ID (nil where a net has none), taken by Share and installed by any
// number of calculators at once. Nothing writes it after Share.
type Solutions struct {
	nets []*netTiming
}

// solveScratch is the per-worker working set of solve: node capacitances,
// DFS state, moments, and a flat CSR adjacency of the net's Steiner tree
// (replacing the per-call Tree.Adjacency allocation).
type solveScratch struct {
	capAt, parentLen, subCap, subCM1, pathLen, m1, m2 []float64
	parent, order, stack                              []int
	adjOff, adjNbr                                    []int32
	adjLen                                            []float64
}

// ensureNodes sizes the node-indexed buffers for nn tree nodes.
func (s *solveScratch) ensureNodes(nn int) {
	if cap(s.capAt) < nn {
		s.capAt = make([]float64, nn)
		s.parentLen = make([]float64, nn)
		s.subCap = make([]float64, nn)
		s.subCM1 = make([]float64, nn)
		s.pathLen = make([]float64, nn)
		s.m1 = make([]float64, nn)
		s.m2 = make([]float64, nn)
		s.parent = make([]int, nn)
	}
	s.capAt = s.capAt[:nn]
	s.parentLen = s.parentLen[:nn]
	s.subCap = s.subCap[:nn]
	s.subCM1 = s.subCM1[:nn]
	s.pathLen = s.pathLen[:nn]
	s.m1 = s.m1[:nn]
	s.m2 = s.m2[:nn]
	s.parent = s.parent[:nn]
	for i := 0; i < nn; i++ {
		s.capAt[i] = 0
		s.parentLen[i] = 0
		s.subCM1[i] = 0
		s.pathLen[i] = 0
		s.m1[i] = 0
		s.m2[i] = 0
		s.parent[i] = -2
	}
	s.order = s.order[:0]
	s.stack = s.stack[:0]
}

// NewCalculator builds a calculator over nl using the shared Steiner cache.
func NewCalculator(nl *netlist.Netlist, st *steiner.Cache, mode Mode) *Calculator {
	c := &Calculator{
		Mode: mode,
		Tech: nl.Lib.Tech,
		St:   st,
		WLM:  DefaultWLM(nl.Lib.Tech),
		nl:   nl,
	}
	nl.Observe(c)
	return c
}

// Close unsubscribes the calculator.
func (c *Calculator) Close() { c.nl.Unobserve(c) }

// SetMode switches delay models and drops all cached solutions.
func (c *Calculator) SetMode(m Mode) {
	c.Mode = m
	c.InvalidateAll()
}

// SetBinDim updates the intra-bin estimate resolution and drops cached
// solutions (loads change globally).
func (c *Calculator) SetBinDim(d float64) {
	if c.BinDim == d {
		return
	}
	c.BinDim = d
	c.InvalidateAll()
}

// InvalidateAll drops every cached RC solution.
func (c *Calculator) InvalidateAll() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// Load returns the capacitance (fF) presented to the driver of net n.
func (c *Calculator) Load(n *netlist.Net) float64 {
	switch c.Mode {
	case GainBased:
		return n.SinkCap()
	case WireLoad:
		return n.SinkCap() + c.WLM.Cap(n.NumPins()-1)
	default:
		return c.net(n).load
	}
}

// WireDelay returns the interconnect delay (ps) from the driver of n to
// the pin at index pinIdx of n.Pins(). Zero under GainBased and WireLoad.
func (c *Calculator) WireDelay(n *netlist.Net, pinIdx int) float64 {
	if c.Mode != Actual {
		return 0
	}
	nt := c.net(n)
	if pinIdx >= len(nt.sinkDelay) {
		return 0
	}
	return nt.sinkDelay[pinIdx]
}

// ArcDelay returns the delay (ps) through gate g from any input to output
// pin z, under the current model. A single worst-arc value is used for all
// inputs (the per-arc refinement would only change constants here).
func (c *Calculator) ArcDelay(g *netlist.Gate, z *netlist.Pin) float64 {
	cl := g.Cell
	tau := c.Tech.Tau
	if c.Mode == GainBased || g.SizeIdx < 0 {
		// Sizeless gates are always timed by their asserted gain, even
		// in later modes, until discretization links a real cell (§4.4).
		return (cl.Parasitic + cl.LogicalEffort*g.Gain) * tau
	}
	var load float64
	if z.Net != nil {
		load = c.Load(z.Net)
	}
	r := cl.DriveResX1 / g.DriveX()
	return cl.Parasitic*tau + rcPS(r, load)
}

// PinArrivalDelay returns the wire delay component for sink pin p on its
// net (O(1): the pin knows its position in the net's pin order).
func (c *Calculator) PinArrivalDelay(p *netlist.Pin) float64 {
	if c.Mode != Actual || p.Net == nil {
		return 0
	}
	return c.WireDelay(p.Net, p.NetPos())
}

func (c *Calculator) grow(id int) {
	for len(c.nets) <= id {
		c.nets = append(c.nets, nil)
	}
	for len(c.valid) <= id {
		c.valid = append(c.valid, false)
	}
	for len(c.shared) <= id {
		c.shared = append(c.shared, false)
	}
}

// Share returns the calculator's valid solutions for Install elsewhere.
// They become shared slots of the calculator too, so it never writes
// them again either.
func (c *Calculator) Share() *Solutions {
	s := &Solutions{nets: make([]*netTiming, len(c.nets))}
	for id, nt := range c.nets {
		if c.valid[id] {
			s.nets[id], c.shared[id] = nt, true
		}
	}
	return s
}

// Install makes every solution of s that the calculator lacks a valid,
// shared slot. It is for a calculator in the mode, and with the BinDim,
// that s was solved under, on a netlist whose nets have exactly the
// pins, in pin order, place and size, that s was solved on — a fork of
// the same netio.State before its first edit: a solution is a pure
// function of those, so an installed slot holds what a solve would.
// Installing is not solving: Solves does not count it.
func (c *Calculator) Install(s *Solutions) {
	c.grow(len(s.nets) - 1)
	for id, nt := range s.nets {
		if nt != nil && !c.valid[id] {
			c.nets[id], c.valid[id], c.shared[id] = nt, true, true
		}
	}
}

// Prepare batch-solves every stale net under the Actual model, fanning out
// over at most workers goroutines. Steiner trees are batch-built first (a
// solve walks its net's tree), after which each worker solves disjoint
// nets and writes only its own slots. Once Prepare returns, Load,
// WireDelay, ArcDelay, and PinArrivalDelay are pure reads until the next
// netlist change — the property the parallel timing flush relies on. A
// solve is a pure function of the net's tree and pin caps, so prepared
// results are identical to lazy serial ones. No-op outside Actual mode
// (the other models never touch the cache).
func (c *Calculator) Prepare(workers int) {
	if c.Mode != Actual {
		return
	}
	c.St.PrepareAll(workers)
	c.grow(c.nl.NetCap() - 1)
	stale := c.staleScratch[:0]
	c.nl.Nets(func(n *netlist.Net) {
		if !c.valid[n.ID] {
			stale = append(stale, n)
		}
	})
	c.staleScratch = stale
	nc := par.NumChunks(workers, len(stale))
	for len(c.scratch) < nc {
		c.scratch = append(c.scratch, solveScratch{})
	}
	par.For(workers, len(stale), func(chunk, lo, hi int) {
		s := &c.scratch[chunk]
		for _, n := range stale[lo:hi] {
			c.solveInto(n, s)
		}
	})
	c.Solves += len(stale)
}

// net solves (or returns the memoized) RC view of net n.
func (c *Calculator) net(n *netlist.Net) *netTiming {
	c.grow(n.ID)
	if c.valid[n.ID] {
		return c.nets[n.ID]
	}
	if len(c.scratch) == 0 {
		c.scratch = append(c.scratch, solveScratch{})
	}
	nt := c.solveInto(n, &c.scratch[0])
	c.Solves++
	return nt
}

// solveInto runs the moment computation on the net's Steiner topology,
// writing the result into the net's (possibly recycled) cache slot using
// the given scratch. Safe to call concurrently for disjoint nets with
// distinct scratch; it only writes c.nets/c.valid/c.shared at n.ID, which
// grow pre-sized before any fan-out.
func (c *Calculator) solveInto(n *netlist.Net, s *solveScratch) *netTiming {
	pins := n.Pins()
	nt := c.nets[n.ID]
	switch {
	case nt == nil:
		nt = &netTiming{}
	case c.shared[n.ID]:
		// Never write a shared solution; its size suits the new one.
		nt = &netTiming{sinkDelay: make([]float64, 0, cap(nt.sinkDelay))}
	}
	c.nets[n.ID], c.shared[n.ID] = nt, false
	if cap(nt.sinkDelay) < len(pins) {
		nt.sinkDelay = make([]float64, len(pins))
	}
	nt.sinkDelay = nt.sinkDelay[:len(pins)]
	for i := range nt.sinkDelay {
		nt.sinkDelay[i] = 0
	}
	nt.load = 0
	c.valid[n.ID] = true

	var driverIdx int
	if d := n.Driver(); d != nil {
		driverIdx = d.NetPos()
	} else {
		driverIdx = -1
	}
	if driverIdx < 0 || len(pins) < 2 {
		nt.load = n.SinkCap()
		return nt
	}

	t := c.St.Tree(n)
	// Rent-style intra-bin floor (§3): coincident bin-center pins hide
	// wire the net will need once the bins refine.
	var extraCap float64
	if c.BinDim > 0 {
		if floor := intraBinFactor * c.BinDim * float64(len(pins)-1); floor > t.Length {
			extraCap = (floor - t.Length) * c.Tech.CwFfPerUm
		}
	}
	nn := len(t.Nodes)
	s.ensureNodes(nn)

	// Flat CSR adjacency of the tree, in the same per-node neighbor order
	// Tree.Adjacency produces (edge order), without its allocations.
	if cap(s.adjOff) < nn+1 {
		s.adjOff = make([]int32, nn+1)
	}
	s.adjOff = s.adjOff[:nn+1]
	for i := range s.adjOff {
		s.adjOff[i] = 0
	}
	for _, e := range t.Edges {
		s.adjOff[e.U+1]++
		s.adjOff[e.V+1]++
	}
	for i := 1; i <= nn; i++ {
		s.adjOff[i] += s.adjOff[i-1]
	}
	ne2 := 2 * len(t.Edges)
	if cap(s.adjNbr) < ne2 {
		s.adjNbr = make([]int32, ne2)
		s.adjLen = make([]float64, ne2)
	}
	s.adjNbr = s.adjNbr[:ne2]
	s.adjLen = s.adjLen[:ne2]
	// fill using a moving cursor per node, then restore offsets
	cursor := s.parent // reuse: parent is all -2, rewritten below anyway
	for i := 0; i < nn; i++ {
		cursor[i] = int(s.adjOff[i])
	}
	for _, e := range t.Edges {
		d := steiner.Dist(t.Nodes[e.U], t.Nodes[e.V])
		s.adjNbr[cursor[e.U]] = int32(e.V)
		s.adjLen[cursor[e.U]] = d
		cursor[e.U]++
		s.adjNbr[cursor[e.V]] = int32(e.U)
		s.adjLen[cursor[e.V]] = d
		cursor[e.V]++
	}
	for i := 0; i < nn; i++ {
		cursor[i] = -2 // restore parent sentinel
	}

	// Node capacitances: pin caps at pin nodes plus half of each incident
	// edge's wire cap (distributed wire approximation).
	capAt := s.capAt
	for i, p := range pins {
		capAt[i] += p.Cap()
	}
	for _, e := range t.Edges {
		wc := steiner.Dist(t.Nodes[e.U], t.Nodes[e.V]) * c.Tech.CwFfPerUm
		capAt[e.U] += wc / 2
		capAt[e.V] += wc / 2
	}

	// DFS from the driver: children order, subtree caps, then moments.
	parent := s.parent
	parentLen := s.parentLen
	order := s.order[:0]
	parent[driverIdx] = -1
	stack := append(s.stack[:0], driverIdx)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		for k := s.adjOff[u]; k < s.adjOff[u+1]; k++ {
			nb := int(s.adjNbr[k])
			if parent[nb] == -2 {
				parent[nb] = u
				parentLen[nb] = s.adjLen[k]
				stack = append(stack, nb)
			}
		}
	}
	s.order = order
	s.stack = stack

	subCap := s.subCap
	subCM1 := s.subCM1 // Σ cap·m1 over subtree, filled later
	pathLen := s.pathLen
	copy(subCap, capAt)
	for i := len(order) - 1; i >= 1; i-- {
		u := order[i]
		subCap[parent[u]] += subCap[u]
	}
	nt.load = subCap[driverIdx] + extraCap

	m1 := s.m1
	for _, u := range order[1:] {
		r := parentLen[u] * c.Tech.RwOhmPerUm
		m1[u] = m1[parent[u]] + rcPS(r, subCap[u])
		pathLen[u] = pathLen[parent[u]] + parentLen[u]
	}

	// Second moments for the long-wire model.
	for i := range subCM1 {
		subCM1[i] = capAt[i] * m1[i]
	}
	for i := len(order) - 1; i >= 1; i-- {
		u := order[i]
		subCM1[parent[u]] += subCM1[u]
	}
	m2 := s.m2
	for _, u := range order[1:] {
		r := parentLen[u] * c.Tech.RwOhmPerUm
		m2[u] = m2[parent[u]] + rcPS(r, subCM1[u])
	}

	ln2 := math.Ln2
	for i := range pins {
		if i == driverIdx || parent[i] == -2 {
			continue
		}
		if pathLen[i] > c.Tech.LongWireUm && m2[i] > 0 {
			// D2M: ln2·m1²/√m2 — tighter than Elmore on resistive paths.
			d := ln2 * m1[i] * m1[i] / math.Sqrt(m2[i])
			if d > m1[i] { // Elmore is an upper bound; never exceed it
				d = m1[i]
			}
			nt.sinkDelay[i] = d
		} else {
			nt.sinkDelay[i] = m1[i]
		}
	}
	return nt
}

// Invalidate drops the cached solution of net n.
func (c *Calculator) Invalidate(n *netlist.Net) {
	if n.ID < len(c.valid) {
		c.valid[n.ID] = false
	}
}

// GateMoved implements netlist.Observer.
func (c *Calculator) GateMoved(g *netlist.Gate) {
	for _, p := range g.Pins {
		if p.Net != nil {
			c.Invalidate(p.Net)
		}
	}
}

// GateResized implements netlist.Observer: input caps changed, so every
// net attached to the gate carries a different load now.
func (c *Calculator) GateResized(g *netlist.Gate) {
	for _, p := range g.Pins {
		if p.Net != nil {
			c.Invalidate(p.Net)
		}
	}
}

// NetChanged implements netlist.Observer.
func (c *Calculator) NetChanged(n *netlist.Net) { c.Invalidate(n) }

// GateAdded implements netlist.Observer.
func (c *Calculator) GateAdded(*netlist.Gate) {}

// GateRemoved implements netlist.Observer.
func (c *Calculator) GateRemoved(*netlist.Gate) {}
