package relocate

import (
	"container/heap"
	"math/rand"
	"testing"

	"tps/internal/cell"
	"tps/internal/delay"
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/steiner"
	"tps/internal/timing"
)

// crowdedRig builds a 4×4 grid with many small cells crammed into one bin.
func crowdedRig(t *testing.T) (*netlist.Netlist, *image.Image, *Relocator, []*netlist.Gate) {
	t.Helper()
	nl := netlist.New("crowd", cell.Default())
	lib := nl.Lib
	im := image.New(192, 192, lib.Tech.RowHeight, 0.7)
	for im.NX < 4 {
		im.Subdivide()
	}
	var gates []*netlist.Gate
	// Fill bin (0,0) to ~150% of capacity with INV X4 cells.
	binCap := im.At(0, 0).AreaCap
	area := 0.0
	for i := 0; area < binCap*1.5; i++ {
		g := nl.AddGate("g", lib.Cell("INV"))
		nl.SetSize(g, 2)
		nl.MoveGate(g, 20, 20)
		im.Deposit(g.X, g.Y, g.Area(lib.Tech))
		area += g.Area(lib.Tech)
		gates = append(gates, g)
	}
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.Actual)
	eng := timing.New(nl, calc, 1e6) // everything has huge slack
	r := New(nl, eng, im)
	return nl, im, r, gates
}

func TestFreeSpaceCreatesRoom(t *testing.T) {
	_, im, r, _ := crowdedRig(t)
	b := im.At(0, 0)
	if b.Free() > 0 {
		t.Fatalf("setup error: bin not overfull")
	}
	need := 50.0
	if !r.FreeSpace(20, 20, need) {
		t.Fatalf("FreeSpace failed")
	}
	if b.Free() < need {
		t.Fatalf("free = %g, want ≥ %g", b.Free(), need)
	}
	if r.Moves == 0 {
		t.Fatalf("no cells moved")
	}
}

func TestRelieveAllFixesOverflow(t *testing.T) {
	_, im, r, _ := crowdedRig(t)
	moved := r.RelieveAll(0.1)
	if moved == 0 {
		t.Fatalf("nothing relieved")
	}
	for _, flat := range im.Overfull(0.1) {
		t.Errorf("bin %d still overfull", flat)
	}
}

func TestMovedCellsLandInNeighborBins(t *testing.T) {
	nl, im, r, gates := crowdedRig(t)
	r.RelieveAll(0.0)
	_ = nl
	outside := 0
	for _, g := range gates {
		ix, iy := im.Loc(g.X, g.Y)
		if ix != 0 || iy != 0 {
			outside++
		}
	}
	if outside == 0 {
		t.Fatalf("no cells left the crowded bin")
	}
}

func TestCriticalCellsStay(t *testing.T) {
	nl, im, _, gates := crowdedRig(t)
	// Make every cell critical by giving the engine an impossible clock:
	// rebuild with period 0.
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.Actual)
	eng := timing.New(nl, calc, -1e6)
	// Wire the gates into a chain so they have slack at all.
	prev := nl.AddNet("n0")
	pi := nl.AddGate("pi", nl.Lib.Cell("PAD"))
	pi.SizeIdx = 0
	pi.Fixed = true
	nl.MoveGate(pi, 0, 0)
	nl.Connect(pi.Pin("O"), prev)
	for _, g := range gates[:4] {
		nl.Connect(g.Pin("A"), prev)
		prev = nl.AddNet("n")
		nl.Connect(g.Output(), prev)
	}
	po := nl.AddGate("po", nl.Lib.Cell("PAD"))
	po.SizeIdx = 0
	po.Fixed = true
	nl.MoveGate(po, 100, 100)
	nl.Connect(po.Pin("I"), prev)

	r2 := New(nl, eng, im)
	before := make(map[int][2]float64)
	for _, g := range gates[:4] {
		before[g.ID] = [2]float64{g.X, g.Y}
	}
	r2.RelieveAll(0.0)
	// The four chained cells have (deeply negative) slack ≤ 0, so
	// they must not move; the isolated filler cells (infinite slack) may.
	for _, g := range gates[:4] {
		p := before[g.ID]
		if g.X != p[0] || g.Y != p[1] {
			t.Fatalf("critical cell %d relocated", g.ID)
		}
	}
}

func TestAreaConservedByRelocation(t *testing.T) {
	_, im, r, _ := crowdedRig(t)
	before := im.TotalUsed()
	r.RelieveAll(0.0)
	if after := im.TotalUsed(); absf(after-before) > 1e-6 {
		t.Fatalf("area leaked: %g → %g", before, after)
	}
}

func TestNoPathNoCrash(t *testing.T) {
	// Single-bin image: no neighbors to relocate into.
	nl := netlist.New("one", cell.Default())
	im := image.New(50, 50, nl.Lib.Tech.RowHeight, 0.7)
	g := nl.AddGate("g", nl.Lib.Cell("INV"))
	nl.SetSize(g, 4)
	nl.MoveGate(g, 25, 25)
	im.Deposit(25, 25, g.Area(nl.Lib.Tech))
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.Actual)
	eng := timing.New(nl, calc, 1e6)
	r := New(nl, eng, im)
	r.FreeSpace(25, 25, 1e9) // must simply return false, not hang
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// refPathPQ is augment's queue before pathHeap: pathNode through
// container/heap.
type refPathPQ []pathNode

func (p refPathPQ) Len() int           { return len(p) }
func (p refPathPQ) Less(i, j int) bool { return p[i].cost < p[j].cost }
func (p refPathPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *refPathPQ) Push(x any)        { *p = append(*p, x.(pathNode)) }
func (p *refPathPQ) Pop() any {
	n := len(*p) - 1
	v := (*p)[n]
	*p = (*p)[:n]
	return v
}

// TestPathHeapMatchesContainerHeap: under random interleaved pushes and
// pops with many equal costs, pathHeap pops the same bins in the same
// order as container/heap.
func TestPathHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var h pathHeap
		ref := &refPathPQ{}
		for op := 0; op < 300; op++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				if got, want := h.pop(), heap.Pop(ref).(pathNode); got != want {
					t.Fatalf("trial %d op %d: pop %+v, container/heap pops %+v", trial, op, got, want)
				}
				continue
			}
			x := pathNode{float64(rng.Intn(6)), rng.Intn(1000)}
			h.push(x)
			heap.Push(ref, x)
		}
	}
}
