package steiner

import (
	"runtime"
	"slices"
	"testing"

	"tps/internal/cell"
	"tps/internal/netlist"
)

func buildNet(t *testing.T) (*netlist.Netlist, *netlist.Net, *netlist.Gate, *netlist.Gate) {
	t.Helper()
	nl := netlist.New("t", cell.Default())
	g1 := nl.AddGate("g1", nl.Lib.Cell("INV"))
	g2 := nl.AddGate("g2", nl.Lib.Cell("INV"))
	n := nl.AddNet("n")
	nl.Connect(g1.Output(), n)
	nl.Connect(g2.Pin("A"), n)
	nl.MoveGate(g1, 0, 0)
	nl.MoveGate(g2, 30, 40)
	return nl, n, g1, g2
}

func TestCacheLength(t *testing.T) {
	nl, n, _, _ := buildNet(t)
	c := NewCache(nl)
	if got := c.Length(n); got != 70 {
		t.Errorf("length = %g, want 70", got)
	}
}

func TestCacheInvalidatesOnMove(t *testing.T) {
	nl, n, _, g2 := buildNet(t)
	c := NewCache(nl)
	_ = c.Length(n)
	nl.MoveGate(g2, 10, 0)
	if got := c.Length(n); got != 10 {
		t.Errorf("after move length = %g, want 10", got)
	}
}

func TestCacheMemoizes(t *testing.T) {
	nl, n, _, _ := buildNet(t)
	c := NewCache(nl)
	_ = c.Length(n)
	_ = c.Length(n)
	_ = c.Length(n)
	if c.Rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1", c.Rebuilds)
	}
}

func TestCacheIncrementality(t *testing.T) {
	nl := netlist.New("t", cell.Default())
	var nets []*netlist.Net
	var gates []*netlist.Gate
	for i := 0; i < 10; i++ {
		d := nl.AddGate("d", nl.Lib.Cell("INV"))
		s := nl.AddGate("s", nl.Lib.Cell("INV"))
		n := nl.AddNet("n")
		nl.Connect(d.Output(), n)
		nl.Connect(s.Pin("A"), n)
		nl.MoveGate(d, float64(i), 0)
		nl.MoveGate(s, float64(i), 10)
		nets = append(nets, n)
		gates = append(gates, d)
	}
	c := NewCache(nl)
	for _, n := range nets {
		_ = c.Length(n)
	}
	before := c.Rebuilds
	nl.MoveGate(gates[3], 100, 100) // touches exactly one net
	for _, n := range nets {
		_ = c.Length(n)
	}
	if c.Rebuilds != before+1 {
		t.Errorf("moving one gate rebuilt %d trees, want 1", c.Rebuilds-before)
	}
}

func TestCacheInvalidatesOnConnectivity(t *testing.T) {
	nl, n, _, _ := buildNet(t)
	c := NewCache(nl)
	_ = c.Length(n)
	g3 := nl.AddGate("g3", nl.Lib.Cell("INV"))
	nl.MoveGate(g3, 100, 0)
	nl.Connect(g3.Pin("A"), n)
	got := c.Length(n)
	if got <= 70 {
		t.Errorf("after adding far sink, length = %g, want > 70", got)
	}
}

func TestCacheClose(t *testing.T) {
	nl, n, _, g2 := buildNet(t)
	c := NewCache(nl)
	_ = c.Length(n)
	c.Close()
	nl.MoveGate(g2, 1, 0)
	// After Close the cache no longer observes; stale length is expected.
	if got := c.Length(n); got != 70 {
		t.Errorf("closed cache recomputed: %g", got)
	}
}

// TestSeededRebuildSizedFromSharedTree: the first rebuild of a seeded
// (shared) slot builds a private tree sized from the shared one, so
// rebuilding unchanged pins allocates the Tree and its two slices and
// never regrows them. The builder scratch is warmed by a build of the
// same nets first, so all but a few counted allocations (the batch's own
// closure) are a tree's.
func TestSeededRebuildSizedFromSharedTree(t *testing.T) {
	nl := totalsDesign(t, 5)
	trees := BuildAll(nl, 1)
	c := NewCache(nl)
	defer c.Close()
	nets := c.PrepareAll(1)
	c.Seed(trees)
	c.InvalidateAll()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	built := c.PrepareAll(1)
	runtime.ReadMemStats(&after)
	if built != nets {
		t.Fatalf("rebuilt %d seeded trees, want %d", built, nets)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 3*uint64(built)+8 {
		t.Fatalf("rebuilding %d seeded trees made %d allocations, want at most 3 per tree", built, allocs)
	}
	for id, s := range trees {
		if s == nil {
			continue
		}
		p := c.trees[id]
		if p == s || c.shared[id] {
			t.Fatalf("net %d: rebuild wrote into the shared tree", id)
		}
		if !slices.Equal(p.Nodes, s.Nodes) || !slices.Equal(p.Edges, s.Edges) || p.Length != s.Length {
			t.Fatalf("net %d: rebuilt tree differs from the shared one", id)
		}
	}
}
