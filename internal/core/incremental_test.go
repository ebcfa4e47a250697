package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tps/internal/cell"
	"tps/internal/congestion"
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/scenario"
	"tps/internal/steiner"
)

// TestIncrementalEquivalenceProperty is the acceptance gate for the
// delta-evaluation layer: a random interleaving of gate moves, net edits,
// weight changes, cell creation/deletion, and bin-grid refinement, with
// the context's incremental analyzers checked after every step against
// from-scratch analyzers built on the same netlist state. Every comparison
// is exact (==): the incremental engines are engineered to reproduce the
// full recompute bit for bit — the Steiner totals through the
// fixed-topology summation tree, the congestion grids through exact
// integer withdraw/re-deposit — at any worker count (the context runs
// 4-wide here while the reference analyzers run serial).
func TestIncrementalEquivalenceProperty(t *testing.T) {
	d := smallDesign(21)
	c := scenario.NewContext(d, 21)
	defer c.Close()
	c.SetWorkers(4)
	nl := c.NL
	rng := rand.New(rand.NewSource(99))

	var movable []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed && !g.IsPad() {
			movable = append(movable, g)
		}
	})
	// Scatter deterministically so trees are non-trivial from the start.
	for i, g := range movable {
		nl.MoveGate(g, float64((i*37)%int(c.ChipW)), float64((i*53)%int(c.ChipH)))
	}
	c.Im.Subdivide()
	c.Im.Subdivide()

	liveNets := func() []*netlist.Net {
		var ns []*netlist.Net
		nl.Nets(func(n *netlist.Net) { ns = append(ns, n) })
		return ns
	}

	check := func(step int) {
		t.Helper()
		// Steiner totals: incremental context cache (4 workers) vs a
		// from-scratch cache (serial).
		gotT := c.St.Total()
		ref := steiner.NewCache(nl)
		refT := ref.Total()
		ref.Close()
		if gotT != refT {
			t.Fatalf("step %d: incremental Total %v != from-scratch %v", step, gotT, refT)
		}

		// Congestion: incremental analyzer vs a full AnalyzeN pass over a
		// fresh image of identical geometry.
		gotRep := c.Cong.Analyze()
		refIm := image.New(c.ChipW, c.ChipH, nl.Lib.Tech.RowHeight, 0.72)
		for refIm.Level < c.Im.Level {
			refIm.Subdivide()
		}
		if refIm.NX != c.Im.NX || refIm.NY != c.Im.NY {
			t.Fatalf("step %d: reference image geometry %dx%d != %dx%d",
				step, refIm.NX, refIm.NY, c.Im.NX, c.Im.NY)
		}
		refSt := steiner.NewCache(nl)
		refRep := congestion.AnalyzeN(nl, refSt, refIm, 1)
		refSt.Close()
		if gotRep != refRep {
			t.Fatalf("step %d: incremental report %+v != full %+v", step, gotRep, refRep)
		}
		for j := 0; j < c.Im.NY; j++ {
			for i := 0; i < c.Im.NX; i++ {
				gb, rb := c.Im.At(i, j), refIm.At(i, j)
				if gb.WireUsedH != rb.WireUsedH || gb.WireUsedV != rb.WireUsedV {
					t.Fatalf("step %d: bin (%d,%d) usage H %v/%v V %v/%v diverged",
						step, i, j, gb.WireUsedH, rb.WireUsedH, gb.WireUsedV, rb.WireUsedV)
				}
			}
		}
	}

	check(-1) // primes both engines with a full pass

	added := 0
	for step := 0; step < 140; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // move a gate
			g := movable[rng.Intn(len(movable))]
			if !g.Removed {
				nl.MoveGate(g, rng.Float64()*c.ChipW, rng.Float64()*c.ChipH)
			}
		case op < 5: // reweight a net
			ns := liveNets()
			nl.SetNetWeight(ns[rng.Intn(len(ns))], 1+rng.Float64()*4)
		case op < 6: // rewire: move a random connected input pin to another net
			g := movable[rng.Intn(len(movable))]
			if g.Removed {
				continue
			}
			var pin *netlist.Pin
			for _, p := range g.Pins {
				if p.Dir() == cell.Input && p.Net != nil {
					pin = p
					break
				}
			}
			if pin == nil {
				continue
			}
			ns := liveNets()
			nl.MovePin(pin, ns[rng.Intn(len(ns))])
		case op < 8: // create a cell wired into a random net
			g := nl.AddGate(fmt.Sprintf("prop_add_%d", added), nl.Lib.Cell("INV"))
			added++
			ns := liveNets()
			nl.Connect(g.Pin("A"), ns[rng.Intn(len(ns))])
			nl.MoveGate(g, rng.Float64()*c.ChipW, rng.Float64()*c.ChipH)
			movable = append(movable, g)
		case op < 9: // delete a cell
			g := movable[rng.Intn(len(movable))]
			if !g.Removed {
				nl.RemoveGate(g)
			}
		default: // refine the bin grid (forces the full-pass fallback)
			c.Im.Subdivide()
		}
		if err := nl.Check(); err != nil {
			t.Fatalf("step %d corrupted the netlist: %v", step, err)
		}
		check(step)
	}

	// The interleaving must have exercised both congestion regimes.
	if c.Cong.IncrementalPasses == 0 {
		t.Errorf("no incremental congestion passes ran (full=%d)", c.Cong.FullPasses)
	}
	if c.Cong.FullPasses < 2 {
		t.Errorf("expected full-pass fallbacks (grid refinement), got %d", c.Cong.FullPasses)
	}
}
