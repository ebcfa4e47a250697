package steiner

import (
	"fmt"
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

// heapTotal is the reference for Total: the live nets' lengths as the
// leaves of a power-of-two heap (root at 1, net id at leafCap+id, zero
// padding), summed bottom-up with s[i] = s[2i] + s[2i+1]. It reads the
// trees through Length, so call it after Total has built them.
func heapTotal(c *Cache) float64 {
	leafCap := 1
	for leafCap < c.nl.NetCap() {
		leafCap <<= 1
	}
	s := make([]float64, 2*leafCap)
	c.nl.Nets(func(n *netlist.Net) { s[leafCap+n.ID] = c.Length(n) })
	for i := leafCap - 1; i >= 1; i-- {
		s[i] = s[2*i] + s[2*i+1]
	}
	return s[1]
}

// checkTotal requires Total to equal (==) both a from-scratch cache's
// Total and the heap reference.
func checkTotal(t *testing.T, c *Cache, when string) {
	t.Helper()
	got := c.Total()
	ref := NewCache(c.nl)
	want := ref.Total()
	ref.Close()
	if got != want {
		t.Fatalf("%s: Total %v != from-scratch %v", when, got, want)
	}
	if h := heapTotal(c); got != h {
		t.Fatalf("%s: Total %v != heap reference %v", when, got, h)
	}
}

// TestTotalsIncrementalBitIdentical verifies Total on a cache updated
// through single-gate moves: it must equal (==, not approximately) a
// from-scratch cache's Total and the power-of-two heap sum at every step,
// because the pairwise shape depends on the net capacity alone and the
// heap's padding only adds +0.
func TestTotalsIncrementalBitIdentical(t *testing.T) {
	nl := totalsDesign(t, 9)
	c := NewCache(nl)
	defer c.Close()
	checkTotal(t, c, "initial")

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
		checkTotal(t, c, fmt.Sprintf("step %d", step))
	}
}

// TestTotalsRebuildOnlyDirty verifies through the Rebuilds counter that
// invalidation is exact: after a first Total, one gate move leaves only the
// trees of the nets on that gate's pins stale, and the next Total rebuilds
// exactly those.
func TestTotalsRebuildOnlyDirty(t *testing.T) {
	nl := totalsDesign(t, 10)
	c := NewCache(nl)
	defer c.Close()
	if got := c.DirtyNets(); got != nl.NumNets() {
		t.Errorf("DirtyNets = %d before any build, want %d", got, nl.NumNets())
	}
	_ = c.Total()
	if got, h := c.Total(), heapTotal(c); got != h {
		t.Fatalf("Total %v != heap reference %v", got, h)
	}
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
	if got, h := c.Total(), heapTotal(c); got != h {
		t.Fatalf("Total %v != heap reference %v after one move", got, h)
	}
	if rebuilt := c.Rebuilds - base; rebuilt != touched {
		t.Errorf("one move rebuilt %d trees, want %d", rebuilt, touched)
	}
	if got := c.DirtyNets(); got != 0 {
		t.Errorf("DirtyNets = %d after flush, want 0", got)
	}
}

// TestTotalsSurviveNetChurn checks the totals stay exact through net
// creation, pin rewiring, and net removal: the net capacity crosses a power
// of two, and dead IDs count 0 in the sum.
func TestTotalsSurviveNetChurn(t *testing.T) {
	nl := totalsDesign(t, 11)
	c := NewCache(nl)
	defer c.Close()
	checkTotal(t, c, "initial")

	var gates []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			gates = append(gates, g)
		}
	})

	// Grow: new nets carry the net capacity past the next power of two.
	pow := 1
	for pow < nl.NetCap() {
		pow <<= 1
	}
	for k := 0; nl.NetCap() <= pow; k++ {
		g := nl.AddGate("churn", nl.Lib.Cell("INV"))
		n := nl.AddNet("churn_net")
		nl.Connect(g.Output(), n)
		nl.MovePin(gates[k].Input(0), n)
		nl.MoveGate(g, float64(k*31), float64(k*17))
		checkTotal(t, c, fmt.Sprintf("grow %d", k))
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
	checkTotal(t, c, "after churn")
}
