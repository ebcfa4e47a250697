package timing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tps/internal/cell"
	"tps/internal/delay"
	"tps/internal/netlist"
	"tps/internal/steiner"
)

// TestIncrementalLevelingMatchesFresh is the differential property test for
// the incremental levelization: an engine that lived through a random
// interleaving of structural edits (gate adds/removes/revivals, connects,
// disconnects, moves, resizes) must answer every query exactly like an
// engine built fresh over the final netlist. The long-lived engine repairs
// its levels via relaxNet/GateAdded/GateRemoved; the fresh one runs a full
// Kahn relevel — identical results prove the repaired levelization is a
// valid stratification everywhere.
func TestIncrementalLevelingMatchesFresh(t *testing.T) {
	f := func(seed int64) bool { return incFuzzOne(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// incFuzzDebug, when non-nil, is invoked with both settled engines just
// before the final comparison (hook for one-off debugging tests).
var incFuzzDebug func(e, fresh *Engine)

// incFuzzOne runs one seeded edit sequence and reports whether the
// long-lived engine matches a fresh one.
func incFuzzOne(t *testing.T, seed int64) bool {
	{
		rng := rand.New(rand.NewSource(seed))
		nl := netlist.New("fuzz", cell.Default())
		lib := nl.Lib
		st := steiner.NewCache(nl)
		calc := delay.NewCalculator(nl, st, delay.GainBased)
		e := New(nl, calc, 800)
		defer e.Close()

		masters := []*cell.Cell{lib.Cell("INV"), lib.Cell("NAND2"), lib.Cell("NOR3"), lib.Cell("DFF"), lib.Cell("BUF")}
		var gates []*netlist.Gate
		var nets []*netlist.Net

		// Seed structure: a pad-driven chain so there are real begin/end
		// points from the start.
		pi := nl.AddGate("pi", lib.Cell("PAD"))
		pi.SizeIdx = 0
		nl.MoveGate(pi, 0, 0)
		in := nl.AddNet("in")
		nl.Connect(pi.Pin("O"), in)
		nets = append(nets, in)

		e.WorstSlack() // force the first full build before the edits start

		for op := 0; op < 250; op++ {
			switch rng.Intn(8) {
			case 0:
				g := nl.AddGate("g", masters[rng.Intn(len(masters))])
				nl.MoveGate(g, rng.Float64()*200, rng.Float64()*200)
				gates = append(gates, g)
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
						// Reject connects that would close a combinational
						// loop: the repaired and fresh engines would both
						// freeze the loop, but keeping the graph acyclic
						// exercises the relaxation path (cycles just bail
						// to a full relevel anyway).
						nl.Connect(p, n)
						if hasCycleFrom(e, p) {
							nl.Disconnect(p)
						}
					}
				}
			case 4:
				if len(gates) > 0 {
					if g := gates[rng.Intn(len(gates))]; !g.Removed {
						nl.Disconnect(g.Pins[rng.Intn(len(g.Pins))])
					}
				}
			case 5:
				if len(gates) > 0 {
					if g := gates[rng.Intn(len(gates))]; !g.Removed {
						nl.MoveGate(g, rng.Float64()*200, rng.Float64()*200)
					}
				}
			case 6:
				if len(gates) > 0 {
					if g := gates[rng.Intn(len(gates))]; !g.Removed && len(g.Cell.Sizes) > 0 {
						nl.SetSize(g, rng.Intn(len(g.Cell.Sizes)))
					}
				}
			case 7:
				if len(gates) > 0 {
					g := gates[rng.Intn(len(gates))]
					if g.Removed {
						nl.ReviveGate(g)
					} else if rng.Intn(3) == 0 {
						nl.RemoveGate(g)
					}
				}
			}
			// Interleave queries so flushes run against partially repaired
			// levels, not one final batch.
			if op%20 == 19 {
				e.WorstSlack()
			}
		}

		// Final comparison runs from a full flush on both sides. The
		// incremental marking is deliberately approximate (see touchNet: a
		// connect that leaves a sink's arrival numerically unchanged never
		// re-marks the sink gate's output, whose value function did change)
		// and that approximation is identical to the old full-relevel
		// engine's, locked in by the flow goldens. What THIS test owns is
		// the repaired levelization: flushAll evaluates every pin in the
		// incrementally repaired level order, so if relaxNet/GateAdded/
		// GateRemoved ever left an edge unsatisfied (pred level >= succ
		// level), a predecessor would be read before it is written and the
		// values would diverge from the fresh engine's Kahn-leveled pass.
		e.InvalidateAll()

		fresh := New(nl, calc, 800)
		defer fresh.Close()
		e.Flush()
		fresh.Flush()
		if incFuzzDebug != nil {
			incFuzzDebug(e, fresh)
		}
		if ws, fws := e.WorstSlack(), fresh.WorstSlack(); ws != fws {
			t.Logf("seed %d: WorstSlack %v != fresh %v", seed, ws, fws)
			return false
		}
		if tns, ftns := e.TNS(), fresh.TNS(); tns != ftns {
			t.Logf("seed %d: TNS %v != fresh %v", seed, tns, ftns)
			return false
		}
		ok := true
		nl.Gates(func(g *netlist.Gate) {
			for _, p := range g.Pins {
				if e.flags[p.ID]&flagClockPin != 0 {
					// Clock pins sit outside the data graph (ideal clock
					// model): nothing ever reads their slots, and the value
					// arrOf parks there depends on what the driver's slot
					// held when the flush happened to visit — unobservable
					// scheduling residue, not timing.
					continue
				}
				a, fa := e.Arrival(p), fresh.Arrival(p)
				r, fr := e.Required(p), fresh.Required(p)
				if a != fa && !(math.IsInf(a, 0) && a == fa) {
					t.Logf("seed %d: pin %d arrival %v != fresh %v", seed, p.ID, a, fa)
					ok = false
					return
				}
				if r != fr && !(math.IsInf(r, 1) && math.IsInf(fr, 1)) {
					t.Logf("seed %d: pin %d required %v != fresh %v", seed, p.ID, r, fr)
					ok = false
					return
				}
			}
		})
		if len(e.endpoints) != len(fresh.endpoints) {
			t.Logf("seed %d: endpoint count %d != fresh %d", seed, len(e.endpoints), len(fresh.endpoints))
			return false
		}
		for i := range e.endpoints {
			if e.endpoints[i] != fresh.endpoints[i] {
				t.Logf("seed %d: endpoint order diverges at %d", seed, i)
				return false
			}
		}
		return ok
	}
}

// hasCycleFrom reports whether following timing successors from p ever
// returns to p. It walks the netlist directly (mirroring the engine's
// successor relation) so it stays valid whatever repair state the engine
// is in; the fuzz graphs are tiny.
func hasCycleFrom(_ *Engine, p *netlist.Pin) bool {
	seen := map[*netlist.Pin]bool{}
	var found bool
	var walk func(q *netlist.Pin)
	walk = func(q *netlist.Pin) {
		if found || seen[q] {
			return
		}
		seen[q] = true
		if q.Port().Clock {
			return
		}
		if q.Dir() == cell.Output {
			if !dataNet(q.Net) {
				return
			}
			for _, s := range q.Net.Pins() {
				if s.Dir() != cell.Input || s.Port().Clock {
					continue
				}
				if s == p {
					found = true
					return
				}
				walk(s)
			}
			return
		}
		if roleFlags(q)&flagEnd != 0 {
			return
		}
		if z := q.Gate.Output(); z != nil {
			if z == p {
				found = true
				return
			}
			walk(z)
		}
	}
	walk(p)
	return found
}
