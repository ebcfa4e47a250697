package congestion

import (
	"testing"
	"time"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/steiner"
)

// analyzerFixture builds a scattered design of the given size with a
// refined bin grid, an Analyzer over it, and a function producing the
// reference serial-pass report on a fresh image of matching geometry.
func analyzerFixture(t *testing.T, seed int64, gates int) (*netlist.Netlist, *image.Image, *Analyzer, func() (Report, *image.Image)) {
	t.Helper()
	d := gen.Generate(cell.Default(), gen.Params{
		NumGates: gates, Levels: 8, RegFraction: 0.15, Seed: seed,
	})
	nl := d.NL
	i := 0
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			nl.MoveGate(g, float64((i*131)%int(d.ChipW)), float64((i*97)%int(d.ChipH)))
			i++
		}
	})
	im := image.New(d.ChipW, d.ChipH, nl.Lib.Tech.RowHeight, 0.72)
	im.Subdivide()
	im.Subdivide()
	st := steiner.NewCache(nl)
	t.Cleanup(st.Close)
	a := NewAnalyzer(nl, st, im)

	serialPass := func() (Report, *image.Image) {
		refIm := image.New(d.ChipW, d.ChipH, nl.Lib.Tech.RowHeight, 0.72)
		for refIm.Level < im.Level {
			refIm.Subdivide()
		}
		refSt := steiner.NewCache(nl)
		defer refSt.Close()
		return Analyze(nl, refSt, refIm), refIm
	}
	return nl, im, a, serialPass
}

func sameGrids(t *testing.T, ctx string, got, ref *image.Image) {
	t.Helper()
	for j := 0; j < got.NY; j++ {
		for i := 0; i < got.NX; i++ {
			gb, rb := got.At(i, j), ref.At(i, j)
			if gb.WireUsedH != rb.WireUsedH || gb.WireUsedV != rb.WireUsedV {
				t.Fatalf("%s: bin (%d,%d) H %v/%v V %v/%v diverged",
					ctx, i, j, gb.WireUsedH, rb.WireUsedH, gb.WireUsedV, rb.WireUsedV)
			}
		}
	}
}

// TestAnalyzerMatchesSerialPass moves a handful of gates between passes
// of a 4-wide analyzer, and refines the grid once, and requires every
// pass to reproduce a serial pass on a fresh image bit for bit: report
// and every bin.
func TestAnalyzerMatchesSerialPass(t *testing.T) {
	nl, im, a, serialPass := analyzerFixture(t, 3, 400)
	a.Workers = 4

	var moved []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed && len(moved) < 5 {
			moved = append(moved, g)
		}
	})
	for round := 0; round < 5; round++ {
		if round == 3 {
			im.Subdivide()
		}
		got := a.Analyze()
		ref, refIm := serialPass()
		if got != ref {
			t.Fatalf("round %d: report %+v != serial %+v", round, got, ref)
		}
		sameGrids(t, "round", im, refIm)
		for k, g := range moved {
			nl.MoveGate(g, float64((round*211+k*67)%1000), float64((round*173+k*41)%1000))
		}
	}
	if a.Passes != 5 {
		t.Errorf("Passes = %d after 5 calls", a.Passes)
	}
}

// TestAnalyzerPassAllocs requires a repeated pass to reuse its shard
// grids and net scratch: its allocations (the worker pool's own) must
// not grow with the net count.
func TestAnalyzerPassAllocs(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var allocs [2]float64
		for k, gates := range []int{200, 800} {
			_, _, a, _ := analyzerFixture(t, 5, gates)
			a.Workers = workers
			a.Analyze()
			allocs[k] = testing.AllocsPerRun(20, func() { a.Analyze() })
		}
		if allocs[1] > allocs[0] || allocs[1] > 2*float64(workers) {
			t.Errorf("workers=%d: a repeated pass allocates %v objects at 200 gates, %v at 800",
				workers, allocs[0], allocs[1])
		}
	}
}

// TestFarPinRasterizesLikeEdgePin places one pin of each of two nets
// 1e15 µm off a 400×400 µm chip, one to the right and one above. The
// pass must finish, and every bin must equal the bins of the same nets
// with those pins just past the chip's edge: boundaries outside the
// grid cost nothing.
func TestFarPinRasterizesLikeEdgePin(t *testing.T) {
	bins := func(far float64) *image.Image {
		nl := netlist.New("t", cell.Default())
		im := image.New(400, 400, 6, 0.7)
		for im.NX < 4 {
			im.Subdivide()
		}
		pair := func(x0, y0, x1, y1 float64) {
			g0 := nl.AddGate("a", nl.Lib.Cell("INV"))
			g1 := nl.AddGate("b", nl.Lib.Cell("INV"))
			n := nl.AddNet("n")
			nl.Connect(g0.Output(), n)
			nl.Connect(g1.Pin("A"), n)
			nl.MoveGate(g0, x0, y0)
			nl.MoveGate(g1, x1, y1)
		}
		pair(50, 50, far, 350)
		pair(150, 50, 250, far)
		st := steiner.NewCache(nl)
		done := make(chan struct{})
		go func() {
			Analyze(nl, st, im)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("pass with a pin at %g did not finish in 10 s", far)
		}
		return im
	}
	sameGrids(t, "far pin", bins(1e15), bins(401))
}
