package timing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tps/internal/delay"
	"tps/internal/netlist"
)

// TestFlushPropertyInterleavedEdits is the regression property test for
// dirty-queue bookkeeping (stale inPendArr/inPendReq entries, pending
// queues short-circuited by a full flush mid-edit sequence): after any
// interleaving of edits, invalidations, and queries, Flush() must leave
// every pin's arrival and required time equal (within eps) to a freshly
// built engine over the same netlist state.
func TestFlushPropertyInterleavedEdits(t *testing.T) {
	nl, period := placedDesign(250, 77)
	eng, closeEng := engineStack(nl, period, 1, delay.Actual)
	defer closeEng()

	rng := rand.New(rand.NewSource(1234))
	var movable []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			movable = append(movable, g)
		}
	})

	insertBuffer := func() {
		// Topology edit: splice a buffer behind a random driven signal net.
		g := movable[rng.Intn(len(movable))]
		z := g.Output()
		if z == nil || z.Net == nil || z.Net.Kind != netlist.Signal {
			return
		}
		out := z.Net
		buf := nl.AddGate("pbuf", nl.Lib.Cell("BUF"))
		nl.MoveGate(buf, g.X+3, g.Y+2)
		mid := nl.AddNet("pmid")
		nl.Disconnect(z)
		nl.Connect(z, mid)
		nl.Connect(buf.Pin("A"), mid)
		nl.Connect(buf.Output(), out)
		movable = append(movable, buf)
	}

	removeBuffer := func() {
		// Find a previously inserted buffer and splice it back out — the
		// tombstoning path leaves marked pin ids dangling in the pending
		// queues, exactly the staleness the bookkeeping must survive.
		for i := len(movable) - 1; i >= 0; i-- {
			g := movable[i]
			if g.Removed || g.Name != "pbuf" {
				continue
			}
			in, z := g.Pin("A"), g.Output()
			src, dst := in.Net, z.Net
			if src == nil || dst == nil {
				return
			}
			drv := src.Driver()
			nl.RemoveGate(g) // disconnects, marks pins pending, tombstones
			if drv != nil {
				nl.MovePin(drv, dst)
			}
			movable = append(movable[:i], movable[i+1:]...)
			return
		}
	}

	for round := 0; round < 60; round++ {
		switch rng.Intn(6) {
		case 0:
			g := movable[rng.Intn(len(movable))]
			nl.MoveGate(g, g.X+float64(rng.Intn(90)-40), g.Y+float64(rng.Intn(90)-40))
		case 1:
			g := movable[rng.Intn(len(movable))]
			if !g.IsSequential() && !g.IsPad() && len(g.Cell.Sizes) > 1 {
				nl.SetSize(g, rng.Intn(len(g.Cell.Sizes)))
			}
		case 2:
			g := movable[rng.Intn(len(movable))]
			nl.SetGain(g, 2+float64(rng.Intn(5)))
		case 3:
			insertBuffer()
		case 4:
			removeBuffer()
		case 5:
			// Global invalidation mid-stream: the next query takes the
			// flushAll path while marked ids are still queued, the exact
			// short-circuit the issue calls out.
			eng.InvalidateAll()
		}
		// Interleave queries so the pending queues flush at varying depths.
		if rng.Intn(3) == 0 {
			_ = eng.WorstSlack()
		}

		if round%10 != 9 {
			continue
		}
		checkMatchesFresh(t, nl, period, eng, fmt.Sprintf("round %d", round))
	}
}

// checkMatchesFresh is the ground truth of the flush property tests: a
// fresh stack in eng's delay mode over the identical netlist state must
// agree with eng, within eps, on every live pin's arrival and required
// time, on the worst slack and on TNS.
func checkMatchesFresh(t *testing.T, nl *netlist.Netlist, period float64, eng *Engine, at string) {
	t.Helper()
	fresh, closeFresh := engineStack(nl, period, 1, eng.Calc.Mode)
	defer closeFresh()
	bad := 0
	nl.Gates(func(g *netlist.Gate) {
		if g.Removed {
			return
		}
		for _, p := range g.Pins {
			ai, af := eng.Arrival(p), fresh.Arrival(p)
			if math.Abs(ai-af) > eps && !(math.IsInf(ai, 0) && ai == af) {
				if bad == 0 {
					t.Errorf("%s: pin %s arrival incremental %v != fresh %v", at, p.Name(), ai, af)
				}
				bad++
			}
			ri, rf := eng.Required(p), fresh.Required(p)
			if math.Abs(ri-rf) > eps && !(math.IsInf(ri, 1) && math.IsInf(rf, 1)) {
				if bad == 0 {
					t.Errorf("%s: pin %s required incremental %v != fresh %v", at, p.Name(), ri, rf)
				}
				bad++
			}
		}
	})
	if bad > 0 {
		t.Fatalf("%s: %d pins diverged from a freshly built engine", at, bad)
	}
	if wi, wf := eng.WorstSlack(), fresh.WorstSlack(); math.Abs(wi-wf) > eps {
		t.Fatalf("%s: worst slack incremental %v != fresh %v", at, wi, wf)
	}
	if ti, tf := eng.TNS(), fresh.TNS(); math.Abs(ti-tf) > eps {
		t.Fatalf("%s: TNS incremental %v != fresh %v", at, ti, tf)
	}
}
