package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tps/internal/cell"
)

func newNL() *Netlist { return New("t", cell.Default()) }

func TestAddConnectDisconnect(t *testing.T) {
	nl := newNL()
	lib := nl.Lib
	g1 := nl.AddGate("g1", lib.Cell("INV"))
	g2 := nl.AddGate("g2", lib.Cell("NAND2"))
	n := nl.AddNet("n")
	nl.Connect(g1.Output(), n)
	nl.Connect(g2.Pin("A"), n)
	if n.NumPins() != 2 {
		t.Fatalf("pins = %d", n.NumPins())
	}
	if n.Driver() != g1.Output() {
		t.Fatalf("driver wrong")
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	nl.Disconnect(g2.Pin("A"))
	if n.NumPins() != 1 {
		t.Fatalf("after disconnect pins = %d", n.NumPins())
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleConnectPanics(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	a, b := nl.AddNet("a"), nl.AddNet("b")
	nl.Connect(g.Output(), a)
	defer func() {
		if recover() == nil {
			t.Error("second Connect did not panic")
		}
	}()
	nl.Connect(g.Output(), b)
}

func TestRemoveGateDisconnects(t *testing.T) {
	nl := newNL()
	g1 := nl.AddGate("g1", nl.Lib.Cell("INV"))
	g2 := nl.AddGate("g2", nl.Lib.Cell("INV"))
	n := nl.AddNet("n")
	nl.Connect(g1.Output(), n)
	nl.Connect(g2.Pin("A"), n)
	nl.RemoveGate(g1)
	if nl.NumGates() != 1 {
		t.Fatalf("NumGates = %d", nl.NumGates())
	}
	if n.Driver() != nil {
		t.Fatal("driver not removed")
	}
	if nl.GateByID(g1.ID) != nil {
		t.Fatal("removed gate still reachable")
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapPins(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("NAND2"))
	na, nb := nl.AddNet("na"), nl.AddNet("nb")
	nl.Connect(g.Pin("A"), na)
	nl.Connect(g.Pin("B"), nb)
	nl.SwapPins(g.Pin("A"), g.Pin("B"))
	if g.Pin("A").Net != nb || g.Pin("B").Net != na {
		t.Fatal("pins not swapped")
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapPinsRejectsUnswappable(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("AOI21"))
	na, nc := nl.AddNet("na"), nl.AddNet("nc")
	nl.Connect(g.Pin("A"), na)
	nl.Connect(g.Pin("C"), nc)
	defer func() {
		if recover() == nil {
			t.Error("SwapPins(A,C) did not panic")
		}
	}()
	nl.SwapPins(g.Pin("A"), g.Pin("C"))
}

type recorder struct {
	moved, resized, netChanged, added, removed int
}

func (r *recorder) GateMoved(*Gate)   { r.moved++ }
func (r *recorder) GateResized(*Gate) { r.resized++ }
func (r *recorder) NetChanged(*Net)   { r.netChanged++ }
func (r *recorder) GateAdded(*Gate)   { r.added++ }
func (r *recorder) GateRemoved(*Gate) { r.removed++ }

func TestObserverEvents(t *testing.T) {
	nl := newNL()
	rec := &recorder{}
	nl.Observe(rec)
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	if rec.added != 1 {
		t.Errorf("added = %d", rec.added)
	}
	n := nl.AddNet("n")
	nl.Connect(g.Output(), n)
	if rec.netChanged != 1 {
		t.Errorf("netChanged = %d", rec.netChanged)
	}
	nl.MoveGate(g, 10, 20)
	if rec.moved != 1 {
		t.Errorf("moved = %d", rec.moved)
	}
	nl.MoveGate(g, 10, 20) // no-op: same location and already placed
	if rec.moved != 1 {
		t.Errorf("no-op move fired event")
	}
	nl.SetSize(g, 2)
	nl.SetGain(g, 3)
	nl.SetAreaScale(g, 0.5)
	if rec.resized != 3 {
		t.Errorf("resized = %d", rec.resized)
	}
	nl.Unobserve(rec)
	nl.MoveGate(g, 1, 1)
	if rec.moved != 1 {
		t.Errorf("event after Unobserve")
	}
}

func TestMoveGateMarksPlaced(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	if g.Placed {
		t.Fatal("new gate marked placed")
	}
	nl.MoveGate(g, 0, 0)
	if !g.Placed {
		t.Fatal("MoveGate(0,0) must mark placed")
	}
}

func TestAreaScaleAndWidth(t *testing.T) {
	nl := newNL()
	tch := nl.Lib.Tech
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	nl.SetSize(g, 1) // X2
	w := g.Width()
	nl.SetAreaScale(g, 0)
	if g.Width() != 0 {
		t.Errorf("zero area scale width = %g", g.Width())
	}
	nl.SetAreaScale(g, 2)
	if g.Width() != 2*w {
		t.Errorf("scaled width = %g, want %g", g.Width(), 2*w)
	}
	if g.Area(tch) != g.Width()*tch.RowHeight {
		t.Errorf("area mismatch")
	}
}

func TestReplaceCellPreservesConnections(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("NAND2"))
	na, nb, nz := nl.AddNet("na"), nl.AddNet("nb"), nl.AddNet("nz")
	nl.Connect(g.Pin("A"), na)
	nl.Connect(g.Pin("B"), nb)
	nl.Connect(g.Output(), nz)
	nl.ReplaceCell(g, nl.Lib.Cell("NOR2"), 1)
	if g.Cell.Name != "NOR2" || g.SizeIdx != 1 {
		t.Fatal("cell not replaced")
	}
	if g.Pin("A").Net != na || g.Output().Net != nz {
		t.Fatal("connections lost")
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNetPanicsWhenPopulated(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	n := nl.AddNet("n")
	nl.Connect(g.Output(), n)
	defer func() {
		if recover() == nil {
			t.Error("RemoveNet on populated net did not panic")
		}
	}()
	nl.RemoveNet(n)
}

// Property: after any random sequence of edits, structural invariants hold
// and live counts match direct enumeration.
func TestRandomEditInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := newNL()
		lib := nl.Lib
		masters := []*cell.Cell{lib.Cell("INV"), lib.Cell("NAND2"), lib.Cell("NOR3"), lib.Cell("DFF")}
		var gates []*Gate
		var nets []*Net
		for op := 0; op < 200; op++ {
			switch rng.Intn(6) {
			case 0:
				gates = append(gates, nl.AddGate("g", masters[rng.Intn(len(masters))]))
			case 1:
				nets = append(nets, nl.AddNet("n"))
			case 2:
				if len(gates) > 0 && len(nets) > 0 {
					g := gates[rng.Intn(len(gates))]
					if g.Removed {
						continue
					}
					p := g.Pins[rng.Intn(len(g.Pins))]
					n := nets[rng.Intn(len(nets))]
					if p.Net == nil && !n.Removed && (p.Dir() != cell.Output || n.Driver() == nil) {
						nl.Connect(p, n)
					}
				}
			case 3:
				if len(gates) > 0 {
					g := gates[rng.Intn(len(gates))]
					if !g.Removed {
						p := g.Pins[rng.Intn(len(g.Pins))]
						nl.Disconnect(p)
					}
				}
			case 4:
				if len(gates) > 0 {
					g := gates[rng.Intn(len(gates))]
					if !g.Removed {
						nl.MoveGate(g, rng.Float64()*100, rng.Float64()*100)
					}
				}
			case 5:
				if len(gates) > 0 && rng.Intn(4) == 0 {
					g := gates[rng.Intn(len(gates))]
					if !g.Removed {
						nl.RemoveGate(g)
					}
				}
			}
		}
		if err := nl.Check(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		liveG := 0
		nl.Gates(func(*Gate) { liveG++ })
		liveN := 0
		nl.Nets(func(*Net) { liveN++ })
		return liveG == nl.NumGates() && liveN == nl.NumNets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMovePin(t *testing.T) {
	nl := newNL()
	g1 := nl.AddGate("g1", nl.Lib.Cell("INV"))
	g2 := nl.AddGate("g2", nl.Lib.Cell("INV"))
	n1, n2 := nl.AddNet("n1"), nl.AddNet("n2")
	nl.Connect(g1.Output(), n1)
	nl.Connect(g2.Pin("A"), n1)
	nl.MovePin(g2.Pin("A"), n2)
	if g2.Pin("A").Net != n2 || n1.NumPins() != 1 {
		t.Fatal("MovePin failed")
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
}

// closingObserver unsubscribes targets (possibly including itself) the
// first time it sees a net event — the pattern of an analyzer calling
// Close() from inside a callback.
type closingObserver struct {
	nl      *Netlist
	name    string
	targets []*closingObserver // unobserved on first NetChanged
	events  int
	fired   bool
}

func (c *closingObserver) GateMoved(*Gate)   {}
func (c *closingObserver) GateResized(*Gate) {}
func (c *closingObserver) GateAdded(*Gate)   {}
func (c *closingObserver) GateRemoved(*Gate) {}
func (c *closingObserver) NetChanged(*Net) {
	c.events++
	if !c.fired {
		c.fired = true
		for _, t := range c.targets {
			c.nl.Unobserve(t)
		}
	}
}

// TestUnobserveDuringNotify is the regression test for observer-slice
// mutation while notify is iterating: removing observers from inside a
// callback must neither skip nor double-deliver the in-flight event to the
// observers that remain registered.
func TestUnobserveDuringNotify(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	n := nl.AddNet("n")

	a := &closingObserver{nl: nl, name: "a"}
	b := &closingObserver{nl: nl, name: "b"}
	c := &closingObserver{nl: nl, name: "c"}
	d := &closingObserver{nl: nl, name: "d"}
	// a removes itself AND c mid-notification; b and d stay registered.
	a.targets = []*closingObserver{a, c}
	for _, o := range []*closingObserver{a, b, c, d} {
		nl.Observe(o)
	}

	nl.Connect(g.Output(), n) // one NetChanged notification
	// The in-flight notification delivers to the registration snapshot:
	// every observer, including the ones removed during it, sees the event
	// exactly once — never zero (skip) and never twice (double-deliver).
	for _, o := range []*closingObserver{a, b, c, d} {
		if o.events != 1 {
			t.Errorf("observer %s saw %d events during removal notify, want 1", o.name, o.events)
		}
	}

	nl.Disconnect(g.Output()) // second notification: a and c are gone
	if a.events != 1 || c.events != 1 {
		t.Errorf("removed observers kept receiving: a=%d c=%d", a.events, c.events)
	}
	if b.events != 2 || d.events != 2 {
		t.Errorf("remaining observers lost events: b=%d d=%d, want 2", b.events, d.events)
	}
}

// TestUnobserveLastDuringNotify removes the final observer in the slice
// from inside the callback of an earlier one — the case where in-place
// shifting used to leave the loop reading a stale tail.
func TestUnobserveLastDuringNotify(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	n := nl.AddNet("n")

	last := &closingObserver{nl: nl, name: "last"}
	first := &closingObserver{nl: nl, name: "first", targets: []*closingObserver{last}}
	nl.Observe(first)
	nl.Observe(last)

	nl.Connect(g.Output(), n)
	if first.events != 1 || last.events != 1 {
		t.Errorf("delivery during removal: first=%d last=%d, want 1/1", first.events, last.events)
	}
	nl.Disconnect(g.Output())
	if last.events != 1 {
		t.Errorf("removed tail observer still notified: %d events", last.events)
	}
	if first.events != 2 {
		t.Errorf("surviving observer events = %d, want 2", first.events)
	}
}

// TestObserveDuringNotify registers a new observer from inside a callback;
// it must not receive the in-flight event but must get the next one.
func TestObserveDuringNotify(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	n := nl.AddNet("n")

	late := &recorder{}
	hook := &funcObserver{onNet: func() { nl.Observe(late) }}
	nl.Observe(hook)

	nl.Connect(g.Output(), n)
	if late.netChanged != 0 {
		t.Errorf("late observer saw the in-flight event %d times", late.netChanged)
	}
	nl.Disconnect(g.Output())
	if late.netChanged != 1 {
		t.Errorf("late observer events = %d, want 1", late.netChanged)
	}
}

// funcObserver adapts a closure to the Observer interface for tests.
type funcObserver struct {
	onNet func()
	seen  int
}

func (f *funcObserver) GateMoved(*Gate)   {}
func (f *funcObserver) GateResized(*Gate) {}
func (f *funcObserver) GateAdded(*Gate)   {}
func (f *funcObserver) GateRemoved(*Gate) {}
func (f *funcObserver) NetChanged(*Net) {
	if f.seen == 0 && f.onNet != nil {
		f.onNet()
	}
	f.seen++
}

type moveTrace struct {
	ids []int
}

func (m *moveTrace) GateMoved(g *Gate) { m.ids = append(m.ids, g.ID) }
func (m *moveTrace) GateResized(*Gate) {}
func (m *moveTrace) NetChanged(*Net)   {}
func (m *moveTrace) GateAdded(*Gate)   {}
func (m *moveTrace) GateRemoved(*Gate) {}

func TestMoveBatchDefersAndReplaysInIDOrder(t *testing.T) {
	nl := newNL()
	var gs []*Gate
	for i := 0; i < 5; i++ {
		gs = append(gs, nl.AddGate("g", nl.Lib.Cell("INV")))
	}
	tr := &moveTrace{}
	nl.Observe(tr)

	nl.BeginMoveBatch()
	// Move in descending ID order, some gates twice: replay must still be
	// one notification per gate, ascending by ID.
	for i := len(gs) - 1; i >= 0; i-- {
		nl.MoveGate(gs[i], float64(i), 1)
	}
	nl.MoveGate(gs[3], 99, 99)
	if len(tr.ids) != 0 {
		t.Fatalf("observer notified during batch: %v", tr.ids)
	}
	nl.EndMoveBatch()
	want := []int{0, 1, 2, 3, 4}
	if len(tr.ids) != len(want) {
		t.Fatalf("replayed %v, want %v", tr.ids, want)
	}
	for i, id := range tr.ids {
		if id != want[i] {
			t.Fatalf("replayed %v, want ascending IDs %v", tr.ids, want)
		}
	}
	if gs[3].X != 99 {
		t.Fatalf("last move lost: X = %v", gs[3].X)
	}

	// After the batch, MoveGate notifies immediately again.
	nl.MoveGate(gs[0], 7, 7)
	if len(tr.ids) != 6 || tr.ids[5] != 0 {
		t.Fatalf("post-batch move not notified: %v", tr.ids)
	}
}

func TestMoveBatchGuardsStructuralEdits(t *testing.T) {
	nl := newNL()
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	n := nl.AddNet("n")
	nl.BeginMoveBatch()
	defer nl.EndMoveBatch()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s inside a move batch did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Connect", func() { nl.Connect(g.Output(), n) })
	mustPanic("AddGate", func() { nl.AddGate("h", nl.Lib.Cell("INV")) })
	mustPanic("RemoveGate", func() { nl.RemoveGate(g) })
	mustPanic("SetGain", func() { nl.SetGain(g, 2) })
	mustPanic("BeginMoveBatch", nl.BeginMoveBatch)
}

// TestDriverCacheMatchesScan is the driver-pin cache property test: under
// randomized interleaved edits (connect, disconnect, pin swaps, gate
// removal/revival), every live net's cached Driver() must equal a fresh
// scan of its pins.
func TestDriverCacheMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := newNL()
		masters := []*cell.Cell{nl.Lib.Cell("INV"), nl.Lib.Cell("NAND2"), nl.Lib.Cell("DFF")}
		var gates []*Gate
		var nets []*Net
		check := func() bool {
			ok := true
			nl.Nets(func(n *Net) {
				if n.Driver() != n.scanDriver() {
					t.Logf("seed %d: net %d cached driver diverged", seed, n.ID)
					ok = false
				}
			})
			return ok
		}
		for op := 0; op < 300; op++ {
			switch rng.Intn(7) {
			case 0:
				gates = append(gates, nl.AddGate("g", masters[rng.Intn(len(masters))]))
			case 1:
				nets = append(nets, nl.AddNet("n"))
			case 2:
				if len(gates) > 0 && len(nets) > 0 {
					g := gates[rng.Intn(len(gates))]
					n := nets[rng.Intn(len(nets))]
					if g.Removed || n.Removed {
						continue
					}
					p := g.Pins[rng.Intn(len(g.Pins))]
					if p.Net == nil && (p.Dir() != cell.Output || n.Driver() == nil) {
						nl.Connect(p, n)
					}
				}
			case 3:
				if len(gates) > 0 {
					if g := gates[rng.Intn(len(gates))]; !g.Removed {
						nl.Disconnect(g.Pins[rng.Intn(len(g.Pins))])
					}
				}
			case 4:
				if len(gates) > 0 && len(nets) > 0 {
					g := gates[rng.Intn(len(gates))]
					n := nets[rng.Intn(len(nets))]
					if g.Removed || n.Removed {
						continue
					}
					p := g.Pins[rng.Intn(len(g.Pins))]
					if p.Net != nil && (p.Dir() != cell.Output || n.Driver() == nil || p.Net == n) {
						nl.MovePin(p, n)
					}
				}
			case 5:
				if len(gates) > 0 && rng.Intn(4) == 0 {
					if g := gates[rng.Intn(len(gates))]; !g.Removed {
						nl.RemoveGate(g)
					}
				}
			case 6:
				if len(gates) > 0 && rng.Intn(4) == 0 {
					if g := gates[rng.Intn(len(gates))]; g.Removed {
						nl.ReviveGate(g)
					}
				}
			}
			if op%25 == 0 && !check() {
				return false
			}
		}
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPinCSRInterleavedEdits fuzzes the lazily rebuilt net→pin CSR against
// the object graph: after random bursts of interleaved edits, the CSR view
// fetched mid-sequence must always match net pin order exactly.
func TestPinCSRInterleavedEdits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := newNL()
		masters := []*cell.Cell{nl.Lib.Cell("INV"), nl.Lib.Cell("NAND2"), nl.Lib.Cell("NOR3")}
		var gates []*Gate
		var nets []*Net
		verify := func() bool {
			off, pins := nl.PinCSR()
			if len(off) != nl.NetCap()+1 {
				t.Logf("seed %d: off len %d != NetCap+1 %d", seed, len(off), nl.NetCap()+1)
				return false
			}
			ok := true
			nl.Nets(func(n *Net) {
				row := pins[off[n.ID]:off[n.ID+1]]
				np := n.Pins()
				if len(row) != len(np) {
					t.Logf("seed %d: net %d row len %d != %d", seed, n.ID, len(row), len(np))
					ok = false
					return
				}
				for i, p := range np {
					if int(row[i]) != p.ID {
						t.Logf("seed %d: net %d row[%d]=%d != %d", seed, n.ID, i, row[i], p.ID)
						ok = false
						return
					}
				}
			})
			return ok
		}
		for burst := 0; burst < 12; burst++ {
			for op := 0; op < 20; op++ {
				switch rng.Intn(6) {
				case 0:
					gates = append(gates, nl.AddGate("g", masters[rng.Intn(len(masters))]))
				case 1:
					nets = append(nets, nl.AddNet("n"))
				case 2, 3:
					if len(gates) > 0 && len(nets) > 0 {
						g := gates[rng.Intn(len(gates))]
						n := nets[rng.Intn(len(nets))]
						if g.Removed || n.Removed {
							continue
						}
						p := g.Pins[rng.Intn(len(g.Pins))]
						if p.Net == nil && (p.Dir() != cell.Output || n.Driver() == nil) {
							nl.Connect(p, n)
						}
					}
				case 4:
					if len(gates) > 0 {
						if g := gates[rng.Intn(len(gates))]; !g.Removed {
							nl.Disconnect(g.Pins[rng.Intn(len(g.Pins))])
						}
					}
				case 5:
					if len(gates) > 0 && rng.Intn(5) == 0 {
						if g := gates[rng.Intn(len(gates))]; !g.Removed {
							nl.RemoveGate(g)
						}
					}
				}
			}
			// Interleave: fetch the CSR mid-sequence (forcing rebuilds keyed
			// on Edits), then keep editing.
			if !verify() {
				return false
			}
		}
		// A fetch with no intervening edits must be the cached view.
		off1, pins1 := nl.PinCSR()
		off2, pins2 := nl.PinCSR()
		if &off1[0] != &off2[0] || (len(pins1) > 0 && &pins1[0] != &pins2[0]) {
			t.Logf("seed %d: CSR rebuilt without an edit", seed)
			return false
		}
		return verify()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
