package cell

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultLibraryMasters(t *testing.T) {
	l := Default()
	for _, name := range []string{"INV", "BUF", "NAND2", "NAND3", "NAND4",
		"NOR2", "NOR3", "AND2", "OR2", "XOR2", "XNOR2", "AOI21", "OAI21",
		"MUX2", "DFF", "CLKBUF", "PAD"} {
		if l.Cell(name) == nil {
			t.Errorf("missing master %s", name)
		}
	}
	if got := len(l.Names()); got != 17 {
		t.Errorf("library has %d masters, want %d", got, 17)
	}
}

func TestLogicalEffortValues(t *testing.T) {
	l := Default()
	cases := []struct {
		name string
		g    float64
	}{
		{"INV", 1.0},
		{"NAND2", 4.0 / 3.0},
		{"NOR2", 5.0 / 3.0},
		{"NAND3", 5.0 / 3.0},
		{"XOR2", 4.0},
	}
	for _, c := range cases {
		if got := l.Cell(c.name).LogicalEffort; got != c.g {
			t.Errorf("%s logical effort = %g, want %g", c.name, got, c.g)
		}
	}
	if l.MaxLogicalEffort() != 4.0 {
		t.Errorf("MaxLogicalEffort = %g, want 4 (XOR)", l.MaxLogicalEffort())
	}
}

func TestSizesSortedAndScaling(t *testing.T) {
	l := Default()
	inv := l.Cell("INV")
	for i := 1; i < len(inv.Sizes); i++ {
		if inv.Sizes[i].X <= inv.Sizes[i-1].X {
			t.Fatalf("sizes not ascending: %v", inv.Sizes)
		}
	}
	// Input cap scales linearly with drive multiple.
	if c1, c4 := inv.InputCap(0, 0), inv.InputCap(0, 2); c4 != 4*c1 {
		t.Errorf("InputCap X4 = %g, want 4×%g", c4, c1)
	}
	// Width scales with X too.
	if inv.Sizes[2].Width != 4*inv.Sizes[0].Width {
		t.Errorf("width X4 = %g, want 4×%g", inv.Sizes[2].Width, inv.Sizes[0].Width)
	}
}

func TestSizeIndexSelection(t *testing.T) {
	l := Default()
	inv := l.Cell("INV")
	if i := inv.SizeIndex(3); inv.Sizes[i].X != 4 {
		t.Errorf("SizeIndex(3) picked X%g, want X4", inv.Sizes[i].X)
	}
	if i := inv.SizeIndex(100); i != len(inv.Sizes)-1 {
		t.Errorf("SizeIndex(100) = %d, want largest", i)
	}
	if i := inv.NearestSizeIndex(3); inv.Sizes[i].X != 2 && inv.Sizes[i].X != 4 {
		t.Errorf("NearestSizeIndex(3) picked X%g", inv.Sizes[i].X)
	}
	if i := inv.NearestSizeIndex(1.1); inv.Sizes[i].X != 1 {
		t.Errorf("NearestSizeIndex(1.1) picked X%g, want X1", inv.Sizes[i].X)
	}
}

// NearestSizeIndex always returns the log-space closest size, for any
// positive target.
func TestNearestSizeIndexProperty(t *testing.T) {
	l := Default()
	inv := l.Cell("INV")
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		x := 0.05 + math.Mod(math.Abs(raw), 100) // positive target
		got := inv.NearestSizeIndex(x)
		bestRatio := ratio(inv.Sizes[got].X, x)
		for i := range inv.Sizes {
			if ratio(inv.Sizes[i].X, x) < bestRatio-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func ratio(a, b float64) float64 {
	r := a / b
	if r < 1 {
		return 1 / r
	}
	return r
}

func TestPortsAndSwapClasses(t *testing.T) {
	l := Default()
	nand := l.Cell("NAND2")
	if nand.Output() != 2 {
		t.Errorf("NAND2 output index = %d, want 2", nand.Output())
	}
	if nand.NumInputs() != 2 {
		t.Errorf("NAND2 inputs = %d", nand.NumInputs())
	}
	if nand.Ports[0].SwapClass != nand.Ports[1].SwapClass || nand.Ports[0].SwapClass == 0 {
		t.Errorf("NAND2 A/B should share a nonzero swap class")
	}
	aoi := l.Cell("AOI21")
	if aoi.Ports[2].SwapClass == aoi.Ports[0].SwapClass {
		t.Errorf("AOI21 C must not be swappable with A/B")
	}
	dff := l.Cell("DFF")
	if dff.PortIndex("CK") < 0 || !dff.Ports[dff.PortIndex("CK")].Clock {
		t.Errorf("DFF CK not marked as clock")
	}
	if !dff.Function.Sequential() {
		t.Errorf("DFF not sequential")
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	l := NewLibrary(DefaultTech())
	c := &Cell{Name: "X", Sizes: []Size{{Name: "X1", X: 1, Width: 1}}}
	l.Add(c)
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate Add did not panic")
		}
	}()
	l.Add(&Cell{Name: "X", Sizes: []Size{{Name: "X1", X: 1, Width: 1}}})
}
