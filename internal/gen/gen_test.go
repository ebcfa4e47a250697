package gen

import (
	"testing"

	"tps/internal/cell"
	"tps/internal/netlist"
)

func small(t *testing.T) *Design {
	t.Helper()
	return Generate(cell.Default(), gen200())
}

func gen200() Params {
	return Params{Name: "small", NumGates: 200, Levels: 6, RegFraction: 0.2, Seed: 9}
}

func TestGeneratedStructure(t *testing.T) {
	d := small(t)
	nl := d.NL
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	if nl.NumGates() < 200 {
		t.Errorf("gates = %d", nl.NumGates())
	}
	if d.Period <= 0 || d.ChipW <= 0 || d.ChipH <= 0 {
		t.Errorf("bad frame: period=%g chip=%gx%g", d.Period, d.ChipW, d.ChipH)
	}
}

func TestEveryNetDrivenAndUsed(t *testing.T) {
	d := small(t)
	d.NL.Nets(func(n *netlist.Net) {
		if n.Driver() == nil {
			t.Errorf("net %s undriven", n.Name)
		}
		sinks := 0
		for _, p := range n.Pins() {
			if p.Dir() == cell.Input {
				sinks++
			}
		}
		if sinks == 0 {
			t.Errorf("net %s has no sinks", n.Name)
		}
	})
}

func TestEveryInputConnected(t *testing.T) {
	d := small(t)
	d.NL.Gates(func(g *netlist.Gate) {
		if g.IsPad() {
			return
		}
		for _, p := range g.Pins {
			if p.Dir() == cell.Input && p.Net == nil {
				t.Errorf("gate %s pin %s dangling", g.Name, p.Name())
			}
		}
	})
}

func TestClockTreeStructure(t *testing.T) {
	d := small(t)
	nl := d.NL
	clockNets, clockBufs, regs := 0, 0, 0
	nl.Nets(func(n *netlist.Net) {
		if n.Kind == netlist.Clock {
			clockNets++
		}
	})
	nl.Gates(func(g *netlist.Gate) {
		switch g.Cell.Function {
		case cell.FuncClkBuf:
			clockBufs++
		case cell.FuncDFF:
			regs++
		}
	})
	if clockNets == 0 || clockBufs == 0 || regs == 0 {
		t.Fatalf("clock structure missing: nets=%d bufs=%d regs=%d", clockNets, clockBufs, regs)
	}
	// Every register clock pin is connected to a clock net.
	nl.Gates(func(g *netlist.Gate) {
		if g.IsSequential() {
			ck := g.ClockPin()
			if ck.Net == nil || ck.Net.Kind != netlist.Clock {
				t.Errorf("register %s clock pin not on a clock net", g.Name)
			}
		}
	})
}

func TestScanChainStitched(t *testing.T) {
	d := small(t)
	nl := d.NL
	connected := 0
	total := 0
	nl.Gates(func(g *netlist.Gate) {
		if !g.IsSequential() {
			return
		}
		total++
		if g.Pin("SI").Net != nil {
			connected++
		}
	})
	if total == 0 || connected != total {
		t.Fatalf("scan chain incomplete: %d/%d SI pins stitched", connected, total)
	}
	// Pure scan nets exist (spare registers).
	pure := 0
	nl.Nets(func(n *netlist.Net) {
		if n.Kind == netlist.Scan {
			pure++
		}
	})
	if pure == 0 {
		t.Errorf("no pure scan nets generated")
	}
}

func TestPadsFixedOnPerimeter(t *testing.T) {
	d := small(t)
	d.NL.Gates(func(g *netlist.Gate) {
		if !g.IsPad() {
			return
		}
		if !g.Fixed || !g.Placed {
			t.Errorf("pad %s not fixed/placed", g.Name)
		}
		onEdge := g.X == 0 || g.Y == 0 ||
			absf(g.X-d.ChipW) < 1e-6 || absf(g.Y-d.ChipH) < 1e-6
		if !onEdge {
			t.Errorf("pad %s at (%g,%g) off perimeter %gx%g", g.Name, g.X, g.Y, d.ChipW, d.ChipH)
		}
	})
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(cell.Default(), gen200())
	b := Generate(cell.Default(), gen200())
	if a.NL.NumGates() != b.NL.NumGates() || a.NL.NumNets() != b.NL.NumNets() {
		t.Fatalf("generation not deterministic")
	}
	if a.Period != b.Period || a.ChipW != b.ChipW {
		t.Fatalf("frame not deterministic")
	}
}

func TestSeedChangesDesign(t *testing.T) {
	p := gen200()
	a := Generate(cell.Default(), p)
	p.Seed++
	b := Generate(cell.Default(), p)
	// Same sizes but different wiring: compare a structural fingerprint.
	fp := func(d *Design) int {
		sum := 0
		d.NL.Nets(func(n *netlist.Net) { sum += n.NumPins() * (n.ID%7 + 1) })
		return sum
	}
	if fp(a) == fp(b) {
		t.Errorf("different seeds produced identical wiring fingerprint")
	}
}

func TestDesConfigs(t *testing.T) {
	for i := 1; i <= 5; i++ {
		p, err := Des(i, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		d := Generate(cell.Default(), p)
		if err := d.NL.Check(); err != nil {
			t.Errorf("Des%d: %v", i, err)
		}
	}
	if _, err := Des(9, 1); err == nil {
		t.Errorf("Des(9) returned no error")
	}
}

func TestChipAreaMatchesUtilization(t *testing.T) {
	d := small(t)
	// The die is sized for the initial X1 area × SizeHeadroom (default 2)
	// at the requested utilization, so the *initial* utilization is
	// roughly Utilization / SizeHeadroom.
	util := d.NL.TotalCellArea() / (d.ChipW * d.ChipH)
	if util < 0.2 || util > 0.5 {
		t.Errorf("initial utilization = %g, want ≈ 0.65/2", util)
	}
}

func TestClassifyNetKinds(t *testing.T) {
	nl := netlist.New("t", cell.Default())
	lib := nl.Lib
	dff := nl.AddGate("r", lib.Cell("DFF"))
	buf := nl.AddGate("b", lib.Cell("CLKBUF"))
	ck := nl.AddNet("ck")
	nl.Connect(buf.Output(), ck)
	nl.Connect(dff.ClockPin(), ck)
	drv := nl.AddGate("d", lib.Cell("INV"))
	sn := nl.AddNet("sn")
	nl.Connect(drv.Output(), sn)
	nl.Connect(dff.Pin("SI"), sn)
	nl.ClassifyKinds()
	if ck.Kind != netlist.Clock {
		t.Errorf("clock net kind = %v", ck.Kind)
	}
	if sn.Kind != netlist.Scan {
		t.Errorf("pure scan net kind = %v", sn.Kind)
	}
	// Add a data sink → no longer pure scan.
	g2 := nl.AddGate("g2", lib.Cell("INV"))
	nl.Connect(g2.Pin("A"), sn)
	nl.ClassifyKinds()
	if sn.Kind != netlist.Signal {
		t.Errorf("mixed net kind = %v", sn.Kind)
	}
}
