// Package netlist is the mutable design database shared by every TPS
// transform: gates (instances of library masters), nets, and pins, plus the
// edit operations the transforms use (move, resize, reconnect, clone,
// insert/remove). Every mutation is reported to registered observers so
// that incremental analyzers (timing, delay, Steiner cache) confine
// recalculation to the affected region — the coupling the paper builds its
// whole methodology on.
package netlist

import (
	"fmt"

	"tps/internal/cell"
)

// NetKind classifies nets for the clock/scan weighting schedule of §4.5.
type NetKind int

const (
	// Signal nets carry ordinary data.
	Signal NetKind = iota
	// Clock nets connect clock sources/buffers to register clock pins.
	Clock
	// Scan nets are pure scan-chain stitching nets (no data connections).
	Scan
)

func (k NetKind) String() string {
	switch k {
	case Signal:
		return "signal"
	case Clock:
		return "clock"
	case Scan:
		return "scan"
	}
	return fmt.Sprintf("NetKind(%d)", int(k))
}

// Pin is one connection point: an instance of a cell port on a gate,
// possibly attached to a net.
type Pin struct {
	ID   int // global pin id, unique for the life of the netlist
	Gate *Gate
	// PortIdx indexes Gate.Cell.Ports.
	PortIdx int
	Net     *Net
	// netPos is the pin's index in Net.pins for O(1) disconnect.
	netPos int
	// dir caches the port direction (hot in timing traversal).
	dir cell.Dir
}

// Port returns the cell port this pin instantiates.
func (p *Pin) Port() *cell.Port { return &p.Gate.Cell.Ports[p.PortIdx] }

// NetPos returns the pin's index in its net's pin order (the position
// Net.Pins()[i] == p holds at), or -1 while unattached. Analyzers use it
// for O(1) per-pin lookups into per-net arrays.
func (p *Pin) NetPos() int { return p.netPos }

// Dir returns the pin direction.
func (p *Pin) Dir() cell.Dir { return p.dir }

// Cap returns the input capacitance of this pin in fF at the gate's
// current drive strength (0 for outputs and for sizeless gates, whose load
// is accounted for in gain mode).
func (p *Pin) Cap() float64 {
	g := p.Gate
	port := &g.Cell.Ports[p.PortIdx]
	if port.Dir != cell.Input {
		return 0
	}
	return port.CapX1 * g.DriveX()
}

// X and Y return the pin location. Pins sit at the center of their gate;
// pin-level offsets are below the resolution the bin image maintains until
// the final stages, matching the paper's gradual-precision model.
func (p *Pin) X() float64 { return p.Gate.X }

// Y returns the pin y coordinate.
func (p *Pin) Y() float64 { return p.Gate.Y }

// Name returns "gate/port" for diagnostics.
func (p *Pin) Name() string {
	return p.Gate.Name + "/" + p.Gate.Cell.Ports[p.PortIdx].Name
}

// Gate is a placed instance of a library master.
type Gate struct {
	ID   int
	Name string
	Cell *cell.Cell
	// SizeIdx indexes Cell.Sizes when the gate has been discretized;
	// it is -1 while the gate is "sizeless" (gain-based, §4.4).
	SizeIdx int
	// Gain is the asserted gain h=Cload/Cin used by the gain-based delay
	// model and by discretization to derive the size.
	Gain float64
	Pins []*Pin
	// X, Y is the gate center in µm.
	X, Y float64
	// Fixed gates (pads, pre-placed macros) are never moved by placement.
	Fixed bool
	// Placed is set once any placement transform has assigned a location.
	Placed bool
	// AreaScale temporarily scales the footprint area seen by placement;
	// the clock/scan schedule of §4.5 uses it to shrink clock buffers to
	// zero and grow registers to reserve space. 1.0 is neutral.
	AreaScale float64
	// Removed marks tombstoned gates still referenced by stale slices.
	Removed bool
}

// DriveX returns the drive multiple of the gate's current size, or a
// gain-derived virtual multiple while sizeless.
func (g *Gate) DriveX() float64 {
	if g.SizeIdx >= 0 {
		return g.Cell.Sizes[g.SizeIdx].X
	}
	return 1
}

// Width returns the footprint width in µm (after AreaScale).
func (g *Gate) Width() float64 {
	var w float64
	if g.SizeIdx >= 0 {
		w = g.Cell.Sizes[g.SizeIdx].Width
	} else {
		w = g.Cell.Sizes[0].Width
	}
	return w * g.AreaScale
}

// Area returns the footprint area in µm².
func (g *Gate) Area(t cell.Tech) float64 { return g.Width() * t.RowHeight }

// Output returns the output pin, or nil if the master has none.
func (g *Gate) Output() *Pin {
	for _, p := range g.Pins {
		if p.Dir() == cell.Output {
			return p
		}
	}
	return nil
}

// Input returns the i-th input pin (in port order), or nil.
func (g *Gate) Input(i int) *Pin {
	n := 0
	for _, p := range g.Pins {
		if p.Dir() == cell.Input {
			if n == i {
				return p
			}
			n++
		}
	}
	return nil
}

// Pin returns the pin instantiating the named port, or nil.
func (g *Gate) Pin(port string) *Pin {
	for _, p := range g.Pins {
		if g.Cell.Ports[p.PortIdx].Name == port {
			return p
		}
	}
	return nil
}

// ClockPin returns the clock pin of a sequential gate, or nil.
func (g *Gate) ClockPin() *Pin {
	for _, p := range g.Pins {
		if g.Cell.Ports[p.PortIdx].Clock {
			return p
		}
	}
	return nil
}

// IsSequential reports whether the gate is a storage element.
func (g *Gate) IsSequential() bool { return g.Cell.Function.Sequential() }

// IsPad reports whether the gate is an IO pad pseudo-cell.
func (g *Gate) IsPad() bool { return g.Cell.Function == cell.FuncPad }

// Net connects one driver pin to sink pins.
type Net struct {
	ID   int
	Name string
	pins []*Pin
	// Weight is the placement net weight (§4.3, §4.5). 1.0 is neutral.
	Weight float64
	// BaseWeight remembers the default weight so the clock/scan schedule
	// can zero and later restore weights.
	BaseWeight float64
	Kind       NetKind
	Removed    bool
	// driver caches the output pin driving the net, maintained by
	// Connect/Disconnect so Driver() never scans. Exact whenever the net
	// has at most one attached output pin (the Check() invariant);
	// transient multi-driver states return the earliest-connected output.
	driver *Pin
}

// Pins returns the net's pins. The returned slice must not be mutated.
func (n *Net) Pins() []*Pin { return n.pins }

// NumPins returns the pin count.
func (n *Net) NumPins() int { return len(n.pins) }

// Driver returns the output pin driving the net, or nil for undriven nets.
func (n *Net) Driver() *Pin { return n.driver }

// scanDriver is the pre-cache linear scan, kept for cache maintenance on
// disconnect and for Check()/property tests to validate the cache against.
func (n *Net) scanDriver() *Pin {
	for _, p := range n.pins {
		if p.Dir() == cell.Output {
			return p
		}
	}
	return nil
}

// Sinks returns the input pins on the net, appended to dst.
func (n *Net) Sinks(dst []*Pin) []*Pin {
	for _, p := range n.pins {
		if p.Dir() == cell.Input {
			dst = append(dst, p)
		}
	}
	return dst
}

// SinkCap returns the total input-pin capacitance on the net in fF.
func (n *Net) SinkCap() float64 {
	var c float64
	for _, p := range n.pins {
		c += p.Cap()
	}
	return c
}

// Observer receives fine-grained change notifications. Implementations
// must not mutate the netlist from inside a callback.
type Observer interface {
	// GateMoved fires after a gate's location changed.
	GateMoved(g *Gate)
	// GateResized fires after a gate's size index, gain, or area scale
	// changed (electrical and footprint consequences).
	GateResized(g *Gate)
	// NetChanged fires after a net's pin membership changed, and for each
	// net of a newly added or removed gate. A weight change is not an
	// event: weights steer the placer, which reads them directly, and no
	// analyzer reads them.
	NetChanged(n *Net)
	// GateAdded fires after a gate is created.
	GateAdded(g *Gate)
	// GateRemoved fires after a gate is tombstoned (pins already
	// disconnected).
	GateRemoved(g *Gate)
}

// Netlist is the design database.
type Netlist struct {
	Name string
	Lib  *cell.Library

	gates []*Gate
	nets  []*Net

	numGates int // live (non-removed) gate count
	numNets  int // live net count
	nextPin  int

	observers []Observer

	// batchMoved, when non-nil, marks an open move batch: MoveGate records
	// moved gate IDs here instead of notifying observers (see
	// BeginMoveBatch).
	batchMoved []bool

	// KindEpoch counts net-kind changes (SetNetKind, ClassifyKinds). Net
	// kinds gate which edges exist in the timing graph, so the timing
	// engine watches this epoch to drop its incremental levelization when
	// a kind flips under it. Code must mutate Net.Kind through SetNetKind
	// (or ClassifyKinds), never by writing the field.
	KindEpoch uint64
	// Edits counts topology-changing mutations; analyzers use it to
	// detect when levelization must be redone.
	Edits uint64

	// Arenas back the object graph with dense chunked storage (see
	// arena.go): objects allocated together sit together, so ID-order
	// walks are near-sequential in memory.
	gateArena   arena[Gate]
	netArena    arena[Net]
	pinArena    arena[Pin]
	pinPtrArena arena[*Pin]

	// ID-indexed hot-state slabs (see slab.go).
	posX, posY []float64 // gate center by gate ID; MoveGate is sole writer
	pinGate    []int32   // owning gate ID by pin ID

	// Lazily rebuilt CSR view of net→pin membership, keyed on Edits.
	csrValid bool
	csrEdits uint64
	csrOff   []int32
	csrPin   []int32
}

// New returns an empty netlist over lib.
func New(name string, lib *cell.Library) *Netlist {
	return &Netlist{Name: name, Lib: lib}
}

// Observe registers an observer. Observers are notified in registration
// order. Registering from inside a callback is safe; the new observer
// starts receiving events with the next notification.
func (nl *Netlist) Observe(o Observer) { nl.observers = append(nl.observers, o) }

// Unobserve removes a previously registered observer. It is safe to call
// from inside an observer callback (an analyzer closing itself in reaction
// to an event): removal builds a fresh slice instead of shifting the one a
// notification loop may currently be ranging over, so the in-flight
// notification still reaches every observer from its snapshot exactly
// once, and subsequent notifications use the updated set.
func (nl *Netlist) Unobserve(o Observer) {
	for i, x := range nl.observers {
		if x == o {
			obs := make([]Observer, 0, len(nl.observers)-1)
			obs = append(obs, nl.observers[:i]...)
			obs = append(obs, nl.observers[i+1:]...)
			nl.observers = obs
			return
		}
	}
}

// NumGates returns the live gate count.
func (nl *Netlist) NumGates() int { return nl.numGates }

// NumNets returns the live net count.
func (nl *Netlist) NumNets() int { return nl.numNets }

// NumPins returns the total pin ids ever issued (dense upper bound for
// analyzer arrays).
func (nl *Netlist) NumPins() int { return nl.nextPin }

// GateCap returns an upper bound for gate IDs (dense array sizing).
func (nl *Netlist) GateCap() int { return len(nl.gates) }

// NetCap returns an upper bound for net IDs.
func (nl *Netlist) NetCap() int { return len(nl.nets) }

// Gates calls f for every live gate in ID order.
func (nl *Netlist) Gates(f func(*Gate)) {
	for _, g := range nl.gates {
		if g != nil && !g.Removed {
			f(g)
		}
	}
}

// Nets calls f for every live net in ID order.
func (nl *Netlist) Nets(f func(*Net)) {
	for _, n := range nl.nets {
		if n != nil && !n.Removed {
			f(n)
		}
	}
}

// GateByID returns the gate with the given id, or nil.
func (nl *Netlist) GateByID(id int) *Gate {
	if id < 0 || id >= len(nl.gates) {
		return nil
	}
	g := nl.gates[id]
	if g == nil || g.Removed {
		return nil
	}
	return g
}

// RawGate returns the gate with the given id even when tombstoned, or
// nil if the id was never issued. Checkpoint restore uses it to revive
// gates a rejected transform removed.
func (nl *Netlist) RawGate(id int) *Gate {
	if id < 0 || id >= len(nl.gates) {
		return nil
	}
	return nl.gates[id]
}

// RawNet returns the net with the given id even when tombstoned, or nil.
func (nl *Netlist) RawNet(id int) *Net {
	if id < 0 || id >= len(nl.nets) {
		return nil
	}
	return nl.nets[id]
}

// NetByID returns the net with the given id, or nil.
func (nl *Netlist) NetByID(id int) *Net {
	if id < 0 || id >= len(nl.nets) {
		return nil
	}
	n := nl.nets[id]
	if n == nil || n.Removed {
		return nil
	}
	return n
}

// AddGate creates a gate instance of master c. The gate starts sizeless
// (SizeIdx -1) with gain 4 unless discretized later; pads are created at
// their smallest size and fixed by the caller.
func (nl *Netlist) AddGate(name string, c *cell.Cell) *Gate {
	nl.assertNoBatch("AddGate")
	g := nl.gateArena.alloc()
	g.ID = len(nl.gates)
	g.Name = name
	g.Cell = c
	g.SizeIdx = -1
	g.Gain = 4
	g.AreaScale = 1
	np := len(c.Ports)
	pins := nl.pinArena.allocN(np)
	g.Pins = nl.pinPtrArena.allocN(np)
	for pi := range c.Ports {
		p := &pins[pi]
		p.ID = nl.nextPin
		p.Gate = g
		p.PortIdx = pi
		p.netPos = -1
		p.dir = c.Ports[pi].Dir
		g.Pins[pi] = p
		nl.nextPin++
	}
	nl.gates = append(nl.gates, g)
	nl.posX = append(nl.posX, 0)
	nl.posY = append(nl.posY, 0)
	nl.registerPins(g)
	nl.numGates++
	nl.Edits++
	for _, o := range nl.observers {
		o.GateAdded(g)
	}
	return g
}

// AddNet creates an empty net.
func (nl *Netlist) AddNet(name string) *Net {
	n := nl.netArena.alloc()
	n.ID = len(nl.nets)
	n.Name = name
	n.Weight = 1
	n.BaseWeight = 1
	nl.nets = append(nl.nets, n)
	nl.numNets++
	nl.Edits++
	return n
}

// Connect attaches pin p to net n. The pin must be unattached.
func (nl *Netlist) Connect(p *Pin, n *Net) {
	if p.Net != nil {
		panic(fmt.Sprintf("netlist: pin %s already connected to %s", p.Name(), p.Net.Name))
	}
	p.Net = n
	p.netPos = len(n.pins)
	n.pins = append(n.pins, p)
	if n.driver == nil && p.dir == cell.Output {
		n.driver = p
	}
	nl.Edits++
	nl.notifyNet(n)
}

// Disconnect detaches pin p from its net (no-op if unattached).
func (nl *Netlist) Disconnect(p *Pin) {
	n := p.Net
	if n == nil {
		return
	}
	last := len(n.pins) - 1
	n.pins[p.netPos] = n.pins[last]
	n.pins[p.netPos].netPos = p.netPos
	n.pins = n.pins[:last]
	p.Net = nil
	p.netPos = -1
	if n.driver == p {
		n.driver = n.scanDriver()
	}
	nl.Edits++
	nl.notifyNet(n)
}

// MovePin reconnects pin p from its current net to net n in one edit.
func (nl *Netlist) MovePin(p *Pin, n *Net) {
	nl.Disconnect(p)
	nl.Connect(p, n)
}

// RemoveNet tombstones an empty net. It panics if pins remain attached.
// Observers hear the removal as a NetChanged on the tombstoned net, so
// incremental analyzers can retire its cached contribution even when the
// net was removed without ever being connected.
func (nl *Netlist) RemoveNet(n *Net) {
	if len(n.pins) != 0 {
		panic("netlist: RemoveNet on non-empty net " + n.Name)
	}
	if n.Removed {
		return
	}
	n.Removed = true
	nl.numNets--
	nl.Edits++
	nl.notifyNet(n)
}

// RemoveGate disconnects all pins and tombstones the gate.
func (nl *Netlist) RemoveGate(g *Gate) {
	nl.assertNoBatch("RemoveGate")
	if g.Removed {
		return
	}
	for _, p := range g.Pins {
		nl.Disconnect(p)
	}
	g.Removed = true
	nl.numGates--
	nl.Edits++
	for _, o := range nl.observers {
		o.GateRemoved(g)
	}
}

// ReviveGate undoes a RemoveGate: the tombstoned gate becomes live again
// with its original ID and pin objects (pins stay disconnected; the caller
// reconnects them). Observers hear a GateAdded. The checkpoint/rollback
// layer uses this to restore gates a rejected transform deleted.
func (nl *Netlist) ReviveGate(g *Gate) {
	nl.assertNoBatch("ReviveGate")
	if !g.Removed {
		return
	}
	g.Removed = false
	nl.numGates++
	nl.Edits++
	for _, o := range nl.observers {
		o.GateAdded(g)
	}
}

// ReviveNet undoes a RemoveNet: the tombstoned net becomes live again with
// its original ID and no pins. Observers hear a NetChanged so incremental
// analyzers re-admit it.
func (nl *Netlist) ReviveNet(n *Net) {
	if !n.Removed {
		return
	}
	n.Removed = false
	nl.numNets++
	nl.Edits++
	nl.notifyNet(n)
}

// MoveGate relocates a gate and notifies observers. Inside a move batch
// (BeginMoveBatch) the notification is deferred instead: the move itself is
// recorded and observers hear one GateMoved per moved gate, in gate-ID
// order, when the batch ends.
func (nl *Netlist) MoveGate(g *Gate, x, y float64) {
	if g.X == x && g.Y == y && g.Placed {
		return
	}
	g.X, g.Y = x, y
	nl.posX[g.ID], nl.posY[g.ID] = x, y
	g.Placed = true
	if nl.batchMoved != nil {
		// Distinct gates touch distinct slots, so concurrent movers that
		// own disjoint gate sets need no further synchronization.
		nl.batchMoved[g.ID] = true
		return
	}
	for _, o := range nl.observers {
		o.GateMoved(g)
	}
}

// BeginMoveBatch suspends per-move observer notification until the matching
// EndMoveBatch. It exists for the parallel transform execution layer: while
// a batch is open, MoveGate may be called concurrently from multiple
// goroutines as long as each gate is moved by at most one goroutine — the
// batch turns the shared observer fan-out (the one mutable state MoveGate
// touches) into a per-gate flag write. Every other mutation (topology
// edits, resizes, weight changes) stays single-threaded-only and panics
// inside a batch, because its observers cannot be replayed in a
// deterministic order.
func (nl *Netlist) BeginMoveBatch() {
	if nl.batchMoved != nil {
		panic("netlist: nested BeginMoveBatch")
	}
	nl.batchMoved = make([]bool, len(nl.gates))
}

// EndMoveBatch closes the batch and replays one GateMoved per moved gate in
// ascending gate-ID order — a deterministic schedule regardless of how many
// goroutines performed the moves, so incremental analyzers accumulate their
// dirty sets in the same order a serial transform would produce.
func (nl *Netlist) EndMoveBatch() {
	moved := nl.batchMoved
	if moved == nil {
		panic("netlist: EndMoveBatch without BeginMoveBatch")
	}
	nl.batchMoved = nil
	for id, m := range moved {
		if !m {
			continue
		}
		g := nl.gates[id]
		if g == nil || g.Removed {
			continue
		}
		for _, o := range nl.observers {
			o.GateMoved(g)
		}
	}
}

// assertNoBatch guards the mutations that cannot be deferred.
func (nl *Netlist) assertNoBatch(op string) {
	if nl.batchMoved != nil {
		panic("netlist: " + op + " inside a move batch")
	}
}

// SetSize discretizes a gate to size index si (actual discretization:
// analyzers are notified so timing recomputes with the new caps/drive).
func (nl *Netlist) SetSize(g *Gate, si int) {
	if g.SizeIdx == si {
		return
	}
	g.SizeIdx = si
	nl.notifyResize(g)
}

// SetGain changes the asserted gain of a sizeless gate.
func (nl *Netlist) SetGain(g *Gate, gain float64) {
	if g.Gain == gain {
		return
	}
	g.Gain = gain
	nl.notifyResize(g)
}

// SetAreaScale adjusts the placement footprint scale (clock/scan schedule).
func (nl *Netlist) SetAreaScale(g *Gate, s float64) {
	if g.AreaScale == s {
		return
	}
	g.AreaScale = s
	nl.notifyResize(g)
}

// ReplaceCell swaps the master of a gate for one with an identical port
// list shape (same count, directions in the same order); the remapping
// transform uses it. Pin objects and net connections are preserved.
func (nl *Netlist) ReplaceCell(g *Gate, c *cell.Cell, si int) {
	if len(c.Ports) != len(g.Cell.Ports) {
		panic(fmt.Sprintf("netlist: ReplaceCell %s→%s port count mismatch", g.Cell.Name, c.Name))
	}
	for i := range c.Ports {
		if c.Ports[i].Dir != g.Cell.Ports[i].Dir {
			panic(fmt.Sprintf("netlist: ReplaceCell %s→%s port dir mismatch at %d", g.Cell.Name, c.Name, i))
		}
	}
	g.Cell = c
	g.SizeIdx = si
	nl.Edits++
	nl.notifyResize(g)
}

// SetNetWeight updates a net's placement weight. Observers are not
// notified (see Observer.NetChanged).
func (nl *Netlist) SetNetWeight(n *Net, w float64) { n.Weight = w }

// SwapPins exchanges the nets of two input pins on the same gate (pin
// swapping transform). Both pins must share a nonzero SwapClass.
func (nl *Netlist) SwapPins(a, b *Pin) {
	if a.Gate != b.Gate {
		panic("netlist: SwapPins across gates")
	}
	pa, pb := a.Port(), b.Port()
	if pa.SwapClass == 0 || pa.SwapClass != pb.SwapClass {
		panic(fmt.Sprintf("netlist: SwapPins %s,%s not swappable", a.Name(), b.Name()))
	}
	na, nb := a.Net, b.Net
	nl.Disconnect(a)
	nl.Disconnect(b)
	if nb != nil {
		nl.Connect(a, nb)
	}
	if na != nil {
		nl.Connect(b, na)
	}
}

func (nl *Netlist) notifyNet(n *Net) {
	nl.assertNoBatch("net edit")
	for _, o := range nl.observers {
		o.NetChanged(n)
	}
}

func (nl *Netlist) notifyResize(g *Gate) {
	nl.assertNoBatch("resize")
	for _, o := range nl.observers {
		o.GateResized(g)
	}
}

// TotalCellArea sums the live gate footprint areas (µm²), excluding pads.
func (nl *Netlist) TotalCellArea() float64 {
	var a float64
	t := nl.Lib.Tech
	nl.Gates(func(g *Gate) {
		if !g.IsPad() {
			a += g.Area(t)
		}
	})
	return a
}

// Check validates structural invariants: every pin's net back-references
// the pin at the recorded position, nets have at most one driver, and
// tombstones are consistent. It returns the first violation found.
func (nl *Netlist) Check() error {
	for _, n := range nl.nets {
		if n == nil || n.Removed {
			continue
		}
		drivers := 0
		for i, p := range n.pins {
			if p.Net != n {
				return fmt.Errorf("net %s pin %s back-reference broken", n.Name, p.Name())
			}
			if p.netPos != i {
				return fmt.Errorf("net %s pin %s position %d != %d", n.Name, p.Name(), p.netPos, i)
			}
			if p.Gate.Removed {
				return fmt.Errorf("net %s references removed gate %s", n.Name, p.Gate.Name)
			}
			if p.Dir() == cell.Output {
				drivers++
			}
		}
		if drivers > 1 {
			return fmt.Errorf("net %s has %d drivers", n.Name, drivers)
		}
		if n.driver != n.scanDriver() {
			return fmt.Errorf("net %s driver cache does not match scan", n.Name)
		}
	}
	for _, g := range nl.gates {
		if g == nil || g.Removed {
			continue
		}
		if nl.posX[g.ID] != g.X || nl.posY[g.ID] != g.Y {
			return fmt.Errorf("gate %s position slab (%g,%g) != (%g,%g)", g.Name, nl.posX[g.ID], nl.posY[g.ID], g.X, g.Y)
		}
		for _, p := range g.Pins {
			if p.Net != nil && p.Net.Removed {
				return fmt.Errorf("gate %s pin %s attached to removed net %s", g.Name, p.Name(), p.Net.Name)
			}
			if nl.pinGate[p.ID] != int32(g.ID) {
				return fmt.Errorf("gate %s pin %s slab index broken", g.Name, p.Name())
			}
		}
	}
	if nl.csrValid && nl.csrEdits == nl.Edits {
		off, pins := nl.csrOff, nl.csrPin
		for _, n := range nl.nets {
			if n == nil || n.Removed {
				continue
			}
			row := pins[off[n.ID]:off[n.ID+1]]
			if len(row) != len(n.pins) {
				return fmt.Errorf("net %s CSR row length %d != %d", n.Name, len(row), len(n.pins))
			}
			for i, p := range n.pins {
				if row[i] != int32(p.ID) {
					return fmt.Errorf("net %s CSR row[%d]=%d != pin %d", n.Name, i, row[i], p.ID)
				}
			}
		}
	}
	return nil
}
