package relocate

import (
	"testing"

	"tps/internal/cell"
	"tps/internal/congestion"
	"tps/internal/delay"
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/steiner"
	"tps/internal/timing"
)

// hotspotRig crams many connected cells into one bin so its boundary
// wiring overflows.
func hotspotRig(t *testing.T) (*netlist.Netlist, *steiner.Cache, *image.Image, *Relocator) {
	t.Helper()
	nl := netlist.New("hot", cell.Default())
	lib := nl.Lib
	im := image.New(400, 400, lib.Tech.RowHeight, 0.7)
	for im.NX < 4 {
		im.Subdivide()
	}
	// Shrink wiring capacity so overflow is easy to trigger.
	for j := 0; j < im.NY; j++ {
		for i := 0; i < im.NX; i++ {
			im.At(i, j).WireCapH = 6
			im.At(i, j).WireCapV = 6
		}
	}
	// A fixed far pad each net must reach — wiring crosses the hot bin's
	// boundary.
	pad := nl.AddGate("pad", lib.Cell("PAD"))
	pad.SizeIdx = 0
	pad.Fixed = true
	nl.MoveGate(pad, 390, 50)
	for i := 0; i < 30; i++ {
		g := nl.AddGate("g", lib.Cell("INV"))
		nl.SetSize(g, 0)
		nl.MoveGate(g, 50, 50) // all in bin (0,0)
		im.Deposit(g.X, g.Y, g.Area(lib.Tech))
		n := nl.AddNet("n")
		nl.Connect(g.Output(), n)
		s := nl.AddGate("s", lib.Cell("INV"))
		nl.SetSize(s, 0)
		nl.MoveGate(s, 350, 50)
		im.Deposit(s.X, s.Y, s.Area(lib.Tech))
		nl.Connect(s.Pin("A"), n)
	}
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.Actual)
	eng := timing.New(nl, calc, 1e6)
	rel := New(nl, eng, im)
	return nl, st, im, rel
}

func TestRelieveReducesOverflow(t *testing.T) {
	nl, st, im, rel := hotspotRig(t)
	before := congestion.Analyze(nl, st, im)
	if before.OverflowEdges == 0 {
		t.Fatal("setup error: no overflow to relieve")
	}
	moved := RelieveCongestion(congestion.NewAnalyzer(nl, st, im), rel, 0, nil)
	if moved == 0 {
		t.Fatal("no cells moved")
	}
	after := congestion.Analyze(nl, st, im)
	if after.OverflowEdges > before.OverflowEdges {
		t.Errorf("overflow edges %d → %d", before.OverflowEdges, after.OverflowEdges)
	}
	if after.HorizPeak >= before.HorizPeak {
		t.Errorf("horizontal peak not reduced: %g → %g", before.HorizPeak, after.HorizPeak)
	}
}

func TestRelieveNoopWhenClean(t *testing.T) {
	nl := netlist.New("clean", cell.Default())
	lib := nl.Lib
	im := image.New(200, 200, lib.Tech.RowHeight, 0.7)
	im.Subdivide()
	g := nl.AddGate("g", lib.Cell("INV"))
	nl.SetSize(g, 0)
	nl.MoveGate(g, 50, 50)
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.Actual)
	eng := timing.New(nl, calc, 1e6)
	rel := New(nl, eng, im)
	if moved := RelieveCongestion(congestion.NewAnalyzer(nl, st, im), rel, 0, nil); moved != 0 {
		t.Errorf("moved %d cells on a congestion-free design", moved)
	}
}

func TestRelieveBoundedByMaxMoves(t *testing.T) {
	nl, st, im, rel := hotspotRig(t)
	if moved := RelieveCongestion(congestion.NewAnalyzer(nl, st, im), rel, 3, nil); moved > 8 {
		t.Errorf("maxMoves ignored: %d cells moved", moved)
	}
}
