package netio

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netlist"
	"tps/internal/steiner"
)

// treeDiff describes the first difference between two trees, bit for
// bit (nodes, edges, Length, NumPins), or returns "" if they are equal.
func treeDiff(got, want *steiner.Tree) string {
	switch {
	case got.NumPins != want.NumPins:
		return fmt.Sprintf("NumPins %d, want %d", got.NumPins, want.NumPins)
	case math.Float64bits(got.Length) != math.Float64bits(want.Length):
		return fmt.Sprintf("Length %v, want %v", got.Length, want.Length)
	case len(got.Nodes) != len(want.Nodes):
		return fmt.Sprintf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	case len(got.Edges) != len(want.Edges):
		return fmt.Sprintf("%d edges, want %d", len(got.Edges), len(want.Edges))
	}
	for i, p := range got.Nodes {
		q := want.Nodes[i]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			return fmt.Sprintf("node %d at %v, want %v", i, p, q)
		}
	}
	for i, e := range got.Edges {
		if e != want.Edges[i] {
			return fmt.Sprintf("edge %d %v, want %v", i, e, want.Edges[i])
		}
	}
	return ""
}

// seededCache is a fork's Steiner cache as scenario.ForkContext builds
// it: seeded with the State's shared trees.
func seededCache(st *State, fk *gen.Design) *steiner.Cache {
	c := steiner.NewCache(fk.NL)
	c.Seed(st.Trees())
	return c
}

// matchFresh fails t unless every net's tree in c equals the tree an
// unseeded cache builds on the same netlist.
func matchFresh(t *testing.T, what string, c *steiner.Cache, nl *netlist.Netlist) {
	t.Helper()
	fresh := steiner.NewCache(nl)
	defer fresh.Close()
	bad := ""
	nl.Nets(func(n *netlist.Net) {
		if bad == "" {
			if d := treeDiff(c.Tree(n), fresh.Tree(n)); d != "" {
				bad = fmt.Sprintf("net %d %s: %s", n.ID, n.Name, d)
			}
		}
	})
	if bad != "" {
		t.Fatalf("%s: tree differs from a fresh build: %s", what, bad)
	}
}

// shiftAll moves every gate of nl by (dx, dy).
func shiftAll(nl *netlist.Netlist, dx, dy float64) {
	nl.Gates(func(g *netlist.Gate) { nl.MoveGate(g, g.X+dx, g.Y+dy) })
}

// checkForkTrees is the shared-tree oracle for one State: right after a
// fork, every tree of a seeded cache equals a fresh build on that fork
// without a single rebuild. Moving the fork's gates then rebuilds its
// shared slots — in a batch on one fork, lazily on the next — and each
// following fork must still start from trees equal to a fresh build: a
// rebuild that wrote into a shared tree would have changed them.
func checkForkTrees(t *testing.T, st *State) {
	t.Helper()
	a := st.Fork()
	ca := seededCache(st, a)
	defer ca.Close()
	matchFresh(t, "first fork", ca, a.NL)
	if ca.Rebuilds != 0 {
		t.Fatalf("seeded cache rebuilt %d trees before any edit", ca.Rebuilds)
	}
	shiftAll(a.NL, 1, 2)
	ca.Total()
	matchFresh(t, "first fork after moves (batch rebuilds)", ca, a.NL)

	b := st.Fork()
	cb := seededCache(st, b)
	defer cb.Close()
	matchFresh(t, "second fork", cb, b.NL)
	shiftAll(b.NL, 3, 1)
	matchFresh(t, "second fork after moves (lazy rebuilds)", cb, b.NL)

	c := st.Fork()
	cc := seededCache(st, c)
	defer cc.Close()
	matchFresh(t, "third fork", cc, c.NL)
}

// TestForkTreesMatchFreshBuild runs the oracle on every Table 1 design
// family, fresh and after perturb's tombstones, spliced-in buffer,
// resizes and weight changes (the States of TestForkMatchesTextRoundTrip).
func TestForkTreesMatchFreshBuild(t *testing.T) {
	for i := 1; i <= 5; i++ {
		p, err := gen.Des(i, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		p.Seed = int64(i)
		d := gen.Generate(cell.Default(), p)
		t.Run(fmt.Sprintf("Des%d", i), func(t *testing.T) { checkForkTrees(t, CaptureDesign(d)) })
		perturb(t, d.NL)
		t.Run(fmt.Sprintf("Des%d-perturbed", i), func(t *testing.T) { checkForkTrees(t, CaptureDesign(d)) })
	}
}

// TestForkTreesCopyOnWrite forks one State from several goroutines at
// once, each seeding its Steiner cache from the State's trees (the
// first to ask builds them). One fork
// gets a spliced-in buffer and moved gates and rebuilds its trees while
// the others read theirs, every cache fanning out over two workers.
// Afterwards the State's trees are unchanged and every cache's trees
// equal a fresh build on its own fork. Under -race it also shows that no
// goroutine writes a tree another reads.
func TestForkTreesCopyOnWrite(t *testing.T) {
	st := CaptureDesign(stateRig(t, 12))
	want := steiner.BuildAll(st.fork().NL, 1) // the State's trees, built apart

	forks := make([]*gen.Design, 4)
	caches := make([]*steiner.Cache, len(forks))
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	for i := range forks {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			forks[i] = st.Fork()
			c := seededCache(st, forks[i])
			c.Workers = 2
			caches[i] = c
			ready.Done()
			<-start
			nl := forks[i].NL
			if i == 0 {
				// Rebuild half the shared slots lazily, the rest in a batch.
				shiftAll(nl, 2, 1)
				nl.Nets(func(n *netlist.Net) {
					if n.ID%2 == 0 {
						c.Tree(n)
					}
				})
			}
			c.Total()
			nl.Nets(func(n *netlist.Net) { c.Tree(n) })
		}()
	}
	ready.Wait()
	func() {
		defer close(start)
		perturb(t, forks[0].NL) // on the test goroutine: it may t.Fatal
	}()
	wg.Wait()

	for id, tr := range st.Trees() {
		if d := treeDiff(tr, want[id]); d != "" {
			t.Fatalf("State tree of net %d changed: %s", id, d)
		}
	}
	for i, c := range caches {
		matchFresh(t, fmt.Sprintf("fork %d", i), c, forks[i].NL)
		c.Close()
	}
	if st.Forks() != len(forks) {
		t.Fatalf("Forks() = %d, want %d: building the trees must not count", st.Forks(), len(forks))
	}
}
