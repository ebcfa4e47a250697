package netio

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netlist"
	"tps/internal/par"
	"tps/internal/steiner"
)

// State is the in-memory design snapshot: everything a transform may
// change on a netlist (gate masters, sizes, gains, area scales,
// positions, flags, pin→net bindings, net weights, liveness tombstones),
// the gate and net names, and — from CaptureDesign — the design frame.
// It is keyed by ID and read-only after capture, apart from the atomic
// Forks counter and the data derived from it for its forks, the one
// part written lazily: Trees and Derived build each value once, on first
// use, and the value is read-only from then on. Restore rewinds the *same*
// netlist in place, so analyzers stay subscribed and hear every reverse
// edit; the scenario engine does this when a protected step is rejected,
// from one State per context that Recapture overwrites at every
// protected step. Fork builds a fresh, independent design; races,
// autotune and the tpsd design store fork every run from one State, any
// number of goroutines at once.
//
// The pin→net bindings of every gate live in one flat slab, so a
// capture costs a handful of allocations however large the design, and
// a Recapture into a State that already fits the design costs none.
type State struct {
	name   string
	lib    *cell.Library
	period float64
	chipW  float64
	chipH  float64
	gates  []gateState
	nets   []netState
	// pins holds every live gate's pin→net bindings, gate after gate in
	// ID order: net IDs, -1 for an unattached pin (see pinNets).
	pins  []int32
	forks atomic.Int64

	derivedMu sync.Mutex
	derived   map[any]*derivedValue
}

type gateState struct {
	live      bool
	name      string
	cell      *cell.Cell
	sizeIdx   int
	gain      float64
	areaScale float64
	x, y      float64
	placed    bool
	fixed     bool
	pinOff    int32 // the gate's first binding in State.pins
}

type netState struct {
	live       bool
	name       string
	weight     float64
	baseWeight float64
	kind       netlist.NetKind
}

// derivedValue is one Derived entry: built once, then read-only.
type derivedValue struct {
	once sync.Once
	val  any
}

// pinNets returns gs's pin bindings, indexed by gate-local pin: one per
// port of its master (ReplaceCell keeps the port count).
func (s *State) pinNets(gs *gateState) []int32 {
	return s.pins[gs.pinOff : int(gs.pinOff)+len(gs.cell.Ports)]
}

// Capture snapshots the full mutable state of nl.
func Capture(nl *netlist.Netlist) *State {
	s := &State{}
	s.Recapture(nl)
	return s
}

// Recapture overwrites s with a snapshot of nl, leaving it as Capture(nl)
// would return it (no frame, no forks, nothing derived), in s's own
// storage: once s has held a design at least as large, it allocates
// nothing. No other goroutine may use s meanwhile, and no fork of s may
// still read its derived data.
func (s *State) Recapture(nl *netlist.Netlist) {
	s.name, s.lib = nl.Name, nl.Lib
	s.period, s.chipW, s.chipH = 0, 0, 0
	s.forks.Store(0)
	s.derived = nil
	s.gates = resize(s.gates, nl.GateCap())
	s.nets = resize(s.nets, nl.NetCap())
	if cap(s.pins) < nl.NumPins() {
		s.pins = make([]int32, 0, nl.NumPins())
	}
	s.pins = s.pins[:0]
	nl.Gates(func(g *netlist.Gate) {
		s.gates[g.ID] = gateState{
			live: true, name: g.Name, cell: g.Cell, sizeIdx: g.SizeIdx, gain: g.Gain,
			areaScale: g.AreaScale, x: g.X, y: g.Y, placed: g.Placed,
			fixed: g.Fixed, pinOff: int32(len(s.pins)),
		}
		for _, p := range g.Pins {
			n := int32(-1)
			if p.Net != nil {
				n = int32(p.Net.ID)
			}
			s.pins = append(s.pins, n)
		}
	})
	nl.Nets(func(n *netlist.Net) {
		s.nets[n.ID] = netState{live: true, name: n.Name, weight: n.Weight, baseWeight: n.BaseWeight, kind: n.Kind}
	})
}

// resize returns s cleared to n zero elements, in s's storage when it
// fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// CaptureDesign snapshots d's netlist, as Capture does, together with
// its clock period and die size, so that Fork returns whole designs.
func CaptureDesign(d *gen.Design) *State {
	s := Capture(d.NL)
	s.period, s.chipW, s.chipH = d.Period, d.ChipW, d.ChipH
	return s
}

// Period returns the captured clock period in ps.
func (s *State) Period() float64 { return s.period }

// Forks returns the number of Fork calls so far.
func (s *State) Forks() int { return int(s.forks.Load()) }

// Fork builds a fresh, fully independent design from the snapshot. It
// makes the netlist calls Read makes on Write's text, in the same order:
// live nets and then live gates, each renumbered densely in ID order,
// with pins attached gate by gate in port order. As in the text form,
// transient flow state starts clean — net weights and area scales at 1,
// sized gates' gains at the AddGate default — so every fork of one State
// is bit-for-bit interchangeable with its siblings and with
// Read(Write(d)). Later edits to a fork never reach the State.
func (s *State) Fork() *gen.Design {
	s.forks.Add(1)
	return s.fork()
}

// Trees returns the Steiner tree of every live net of a fork, indexed by
// the fork's net ID. The first call builds them with steiner's own
// builder on a private fork that Forks does not count; every call, from
// any goroutine, returns those same trees. Since every fork lays out
// its nets and their pins identically, they are exactly the trees a
// fresh Steiner cache builds on any fork before its first edit, which is
// what lets every fork's cache start from them (steiner.Cache.Seed).
// Callers must not modify them.
func (s *State) Trees() []*steiner.Tree {
	return s.Derived(treesKey{}, func(d *gen.Design) any {
		return steiner.BuildAll(d.NL, par.Workers())
	}).([]*steiner.Tree)
}

// treesKey is the Derived key of Trees.
type treesKey struct{}

// Derived returns the value build computes from a fork of the State. The
// first call for key, from any goroutine, runs build on a private fork
// that Forks does not count; every call for that key returns its
// result, and calls racing the first wait for it. This is how packages
// above netio share what they derive from a snapshot with every fork of
// it, as Trees shares the Steiner trees (scenario.ForkContext keeps each
// delay mode's first timing pass here). Since every fork is laid out
// identically, the value describes any fork before its first edit. It
// must be read-only from then on. build may call Trees, or Derived with
// another key.
func (s *State) Derived(key any, build func(*gen.Design) any) any {
	s.derivedMu.Lock()
	v := s.derived[key]
	if v == nil {
		if s.derived == nil {
			s.derived = map[any]*derivedValue{}
		}
		v = &derivedValue{}
		s.derived[key] = v
	}
	s.derivedMu.Unlock()
	v.once.Do(func() { v.val = build(s.fork()) })
	return v.val
}

// fork is Fork without the count.
func (s *State) fork() *gen.Design {
	nl := netlist.New(s.name, s.lib)
	nets := make([]*netlist.Net, len(s.nets))
	for id := range s.nets {
		if ns := &s.nets[id]; ns.live {
			nets[id] = nl.AddNet(ns.name)
			nl.SetNetKind(nets[id], ns.kind)
		}
	}
	for id := range s.gates {
		gs := &s.gates[id]
		if !gs.live {
			continue
		}
		g := nl.AddGate(gs.name, gs.cell)
		g.SizeIdx, g.Fixed = gs.sizeIdx, gs.fixed
		if gs.sizeIdx < 0 {
			g.Gain = gs.gain
		}
		for i, n := range s.pinNets(gs) {
			if n >= 0 {
				nl.Connect(g.Pins[i], nets[n])
			}
		}
		if gs.placed {
			nl.MoveGate(g, gs.x, gs.y)
		}
	}
	return &gen.Design{NL: nl, Period: s.period, ChipW: s.chipW, ChipH: s.chipH}
}

// Restore rewinds nl to the captured state through the public mutation
// API, so every observer (timing, Steiner, congestion, …) sees the
// reverse edits and stays consistent. Gates and nets created after the
// capture are removed; gates and nets removed after the capture are
// revived. Restore cannot invent objects: it returns an error if the
// capture references a gate or net ID the netlist no longer knows (which
// cannot happen when the capture came from the same netlist, since
// removal only tombstones).
func (s *State) Restore(nl *netlist.Netlist) error {
	// 1. Revive nets the transform removed, so reconnection targets exist,
	//    and detach every pin whose binding changed (or whose gate dies).
	for id, ns := range s.nets {
		if !ns.live {
			continue
		}
		n := nl.NetByID(id)
		if n == nil {
			if n = nl.RawNet(id); n == nil {
				return fmt.Errorf("netio: restore: net %d vanished", id)
			}
			nl.ReviveNet(n)
		}
	}

	// 2. Remove gates created after the capture (disconnects their pins),
	//    revive gates removed after it, and detach changed pins.
	nl.Gates(func(g *netlist.Gate) {
		if g.ID >= len(s.gates) || !s.gates[g.ID].live {
			nl.RemoveGate(g)
		}
	})
	for id := range s.gates {
		gs := &s.gates[id]
		if !gs.live {
			continue
		}
		g := nl.GateByID(id)
		if g == nil {
			if g = nl.RawGate(id); g == nil {
				return fmt.Errorf("netio: restore: gate %d vanished", id)
			}
			nl.ReviveGate(g)
		}
		pn := s.pinNets(gs)
		for i, p := range g.Pins {
			if p.Net != nil && p.Net.ID != int(pn[i]) {
				nl.Disconnect(p)
			}
		}
	}

	// 3. Reconnect pins and restore per-gate scalar state.
	for id := range s.gates {
		gs := &s.gates[id]
		if !gs.live {
			continue
		}
		g := nl.GateByID(id)
		pn := s.pinNets(gs)
		for i, p := range g.Pins {
			if want := int(pn[i]); want >= 0 && p.Net == nil {
				n := nl.NetByID(want)
				if n == nil {
					return fmt.Errorf("netio: restore: gate %s pin %d needs missing net %d", g.Name, i, want)
				}
				nl.Connect(p, n)
			}
		}
		if g.Cell != gs.cell {
			nl.ReplaceCell(g, gs.cell, gs.sizeIdx)
		} else if g.SizeIdx != gs.sizeIdx {
			nl.SetSize(g, gs.sizeIdx)
		}
		nl.SetGain(g, gs.gain)
		nl.SetAreaScale(g, gs.areaScale)
		if g.X != gs.x || g.Y != gs.y || g.Placed != gs.placed {
			nl.MoveGate(g, gs.x, gs.y)
			g.Placed = gs.placed
		}
		g.Fixed = gs.fixed
	}

	// 4. Remove nets created after the capture (now guaranteed pinless,
	//    since only restored pins reference restored nets) and put weights
	//    and kinds back.
	nl.Nets(func(n *netlist.Net) {
		if n.ID >= len(s.nets) || !s.nets[n.ID].live {
			nl.RemoveNet(n)
		}
	})
	for id, ns := range s.nets {
		if !ns.live {
			continue
		}
		n := nl.NetByID(id)
		nl.SetNetWeight(n, ns.weight)
		n.BaseWeight = ns.baseWeight
		nl.SetNetKind(n, ns.kind)
	}
	return nil
}
