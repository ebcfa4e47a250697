package congestion

import (
	"math/rand"
	"testing"

	"tps/internal/cell"
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/steiner"
)

// FuzzRasterizeMatchesBoundaryScan builds a small random design on a
// random chip at a fuzzed grid level, optionally with one pin up to
// 1e15 µm off the chip, and requires two things: AnalyzeN at 3 workers
// equals the serial Analyze, report and every bin; and every bin equals
// boundaryScan, which tests each internal boundary against each L-shape
// instead of computing the crossed range.
func FuzzRasterizeMatchesBoundaryScan(f *testing.F) {
	f.Add(int64(1), uint8(2), false)
	f.Add(int64(2), uint8(4), true)
	f.Add(int64(3), uint8(0), true)
	f.Add(int64(4), uint8(7), false)
	lib := cell.Default()
	f.Fuzz(func(t *testing.T, seed int64, level uint8, far bool) {
		rng := rand.New(rand.NewSource(seed))
		w, h := 50+rng.Float64()*950, 50+rng.Float64()*950
		newImage := func() *image.Image {
			im := image.New(w, h, lib.Tech.RowHeight, 0.7)
			for k := 0; k < int(level%8); k++ {
				im.Subdivide()
			}
			return im
		}
		im := newImage()
		bw, bh := im.BinW(), im.BinH()
		// coord draws a point on the chip, snapped to a bin boundary one
		// time in four so the 1e-9 rule is exercised.
		coord := func(size, step float64) float64 {
			v := rng.Float64() * size
			if rng.Intn(4) == 0 {
				v = float64(int(v/step)) * step
			}
			return v
		}

		nl := netlist.New("fuzz", lib)
		var gates []*netlist.Gate
		for k := 0; k < 1+rng.Intn(12); k++ {
			n := nl.AddNet("n")
			drv := nl.AddGate("d", lib.Cell("INV"))
			nl.Connect(drv.Output(), n)
			gates = append(gates, drv)
			for s := 0; s < 1+rng.Intn(4); s++ {
				g := nl.AddGate("s", lib.Cell("INV"))
				nl.Connect(g.Pin("A"), n)
				gates = append(gates, g)
			}
		}
		for _, g := range gates {
			nl.MoveGate(g, coord(w, bw), coord(h, bh))
		}
		if far {
			g := gates[rng.Intn(len(gates))]
			off := rng.Float64() * 1e15
			if rng.Intn(2) == 0 {
				nl.MoveGate(g, w+off, g.Y)
			} else {
				nl.MoveGate(g, g.X, h+off)
			}
		}

		st := steiner.NewCache(nl)
		serial := Analyze(nl, st, im)
		imN := newImage()
		if got := AnalyzeN(nl, st, imN, 3); got != serial {
			t.Fatalf("AnalyzeN(3) report %+v != serial %+v", got, serial)
		}
		sameGrids(t, "workers 3", imN, im)

		refH, refV := boundaryScan(nl, st, im)
		for j := 0; j < im.NY; j++ {
			for i := 0; i < im.NX; i++ {
				b, idx := im.At(i, j), j*im.NX+i
				if b.WireUsedH != refH[idx] || b.WireUsedV != refV[idx] {
					t.Fatalf("bin (%d,%d) of %dx%d: H %v V %v, boundary scan H %v V %v",
						i, j, im.NX, im.NY, b.WireUsedH, b.WireUsedV, refH[idx], refV[idx])
				}
			}
		}
	})
}

// boundaryScan is the rasterization reference: for every tree edge's
// canonical L-shape it tests each internal boundary, 1..NX−1 for the
// horizontal run and 1..NY−1 for the vertical one, for lying strictly
// inside the run under the same 1e-9 rule.
func boundaryScan(nl *netlist.Netlist, st *steiner.Cache, im *image.Image) (h, v []float64) {
	h = make([]float64, im.NX*im.NY)
	v = make([]float64, im.NX*im.NY)
	bw, bh := im.BinW(), im.BinH()
	nl.Nets(func(n *netlist.Net) {
		t := st.Tree(n)
		for _, e := range t.Edges {
			p, q := t.Nodes[e.U], t.Nodes[e.V]
			xa, xb := min(p.X, q.X), max(p.X, q.X)
			_, j := im.Loc((xa+xb)/2, p.Y)
			for i := 1; i < im.NX; i++ {
				if b := float64(i) * bw; b > xa+1e-9 && b < xb-1e-9 {
					h[j*im.NX+i-1]++
				}
			}
			ya, yb := min(p.Y, q.Y), max(p.Y, q.Y)
			i, _ := im.Loc(q.X, (ya+yb)/2)
			for j := 1; j < im.NY; j++ {
				if b := float64(j) * bh; b > ya+1e-9 && b < yb-1e-9 {
					v[(j-1)*im.NX+i]++
				}
			}
		}
	})
	return h, v
}
