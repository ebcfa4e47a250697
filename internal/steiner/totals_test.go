package steiner

import (
	"math/rand"
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netlist"
)

func totalsDesign(t *testing.T, seed int64) *netlist.Netlist {
	t.Helper()
	d := gen.Generate(cell.Default(), gen.Params{
		NumGates: 300, Levels: 8, RegFraction: 0.15, Seed: seed,
	})
	i := 0
	d.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			d.NL.MoveGate(g, float64((i*131)%int(d.ChipW)), float64((i*97)%int(d.ChipH)))
			i++
		}
	})
	return d.NL
}

// TestTotalsIncrementalBitIdentical verifies the summation-tree total: a
// primed cache updated through single-net dirtying must report Total
// exactly equal (==, not approximately) to a from-scratch cache, because
// the fixed tree topology performs the identical sequence of float64
// additions either way.
func TestTotalsIncrementalBitIdentical(t *testing.T) {
	nl := totalsDesign(t, 9)
	c := NewCache(nl)
	defer c.Close()
	_ = c.Total() // prime: full bottom-up rebuild

	var gates []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			gates = append(gates, g)
		}
	})
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 50; step++ {
		g := gates[rng.Intn(len(gates))]
		nl.MoveGate(g, rng.Float64()*1000, rng.Float64()*1000)
		got := c.Total()
		ref := NewCache(nl)
		want := ref.Total()
		ref.Close()
		if got != want {
			t.Fatalf("step %d: incremental Total %v != from-scratch %v", step, got, want)
		}
	}
}

// TestTotalsRebuildOnlyDirty verifies the O(dirty) claim through the
// Rebuilds counter: after priming, one gate move must rebuild only the
// trees of the nets on that gate's pins.
func TestTotalsRebuildOnlyDirty(t *testing.T) {
	nl := totalsDesign(t, 10)
	c := NewCache(nl)
	defer c.Close()
	_ = c.Total()
	base := c.Rebuilds

	var g0 *netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if g0 == nil && !g.Fixed {
			g0 = g
		}
	})
	touched := 0
	seen := map[int]bool{}
	for _, p := range g0.Pins {
		if p.Net != nil && !seen[p.Net.ID] {
			seen[p.Net.ID] = true
			touched++
		}
	}
	nl.MoveGate(g0, g0.X+5, g0.Y)
	if got := c.DirtyNets(); got != touched {
		t.Errorf("DirtyNets = %d after one move, want %d", got, touched)
	}
	_ = c.Total()
	if rebuilt := c.Rebuilds - base; rebuilt != touched {
		t.Errorf("one move rebuilt %d trees, want %d", rebuilt, touched)
	}
	if got := c.DirtyNets(); got != 0 {
		t.Errorf("DirtyNets = %d after flush, want 0", got)
	}
}

// TestTotalsSurviveNetChurn checks the totals stay exact through net
// creation, pin rewiring, and net removal — the tree grows and dead leaves
// drop to zero without disturbing sibling sums.
func TestTotalsSurviveNetChurn(t *testing.T) {
	nl := totalsDesign(t, 11)
	c := NewCache(nl)
	defer c.Close()
	_ = c.Total()

	var gates []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			gates = append(gates, g)
		}
	})

	// Grow: new nets force leaf-capacity doubling eventually.
	for k := 0; k < 20; k++ {
		g := nl.AddGate("churn", nl.Lib.Cell("INV"))
		n := nl.AddNet("churn_net")
		nl.Connect(g.Output(), n)
		nl.MovePin(gates[k].Input(0), n)
		nl.MoveGate(g, float64(k*31), float64(k*17))
	}
	// Shrink: detach a few nets entirely and remove them.
	removed := 0
	nl.Nets(func(n *netlist.Net) {
		if removed >= 5 || n.NumPins() != 2 {
			return
		}
		for len(n.Pins()) > 0 {
			nl.Disconnect(n.Pins()[0])
		}
		nl.RemoveNet(n)
		removed++
	})

	got := c.Total()
	ref := NewCache(nl)
	want := ref.Total()
	ref.Close()
	if got != want {
		t.Fatalf("after churn: incremental %v != from-scratch %v", got, want)
	}
}
