package image

import (
	"math"
	"testing"
	"testing/quick"
)

func newIm() *Image { return New(600, 600, 6, 0.7) }

func TestNewSingleBin(t *testing.T) {
	im := newIm()
	if im.NX != 1 || im.NY != 1 {
		t.Fatalf("initial grid %dx%d", im.NX, im.NY)
	}
	if im.Status() != 0 {
		t.Errorf("initial status = %d", im.Status())
	}
	want := 600 * 600 * 0.7
	if math.Abs(im.TotalCap()-want) > 1e-6 {
		t.Errorf("cap = %g, want %g", im.TotalCap(), want)
	}
}

func TestSubdivideProgression(t *testing.T) {
	im := newIm()
	prevBins := im.NumBins()
	prevStatus := im.Status()
	for im.Subdivide() {
		if im.NumBins() != prevBins*4 {
			t.Fatalf("bins %d, want %d", im.NumBins(), prevBins*4)
		}
		if im.Status() <= prevStatus {
			t.Fatalf("status did not advance: %d → %d", prevStatus, im.Status())
		}
		prevBins, prevStatus = im.NumBins(), im.Status()
	}
	if im.Status() != 100 {
		t.Errorf("final status = %d, want 100", im.Status())
	}
	// At max refinement bins are near detailed-placement resolution.
	if im.BinH() > 4*6 {
		t.Errorf("final bin height %g too coarse", im.BinH())
	}
}

func TestCapacityConservedAcrossSubdivide(t *testing.T) {
	im := newIm()
	before := im.TotalCap()
	im.Subdivide()
	if math.Abs(im.TotalCap()-before) > 1e-6 {
		t.Errorf("cap changed: %g → %g", before, im.TotalCap())
	}
}

func TestLocClamping(t *testing.T) {
	im := newIm()
	im.Subdivide()
	im.Subdivide()
	ix, iy := im.Loc(-5, -5)
	if ix != 0 || iy != 0 {
		t.Errorf("negative loc = (%d,%d)", ix, iy)
	}
	ix, iy = im.Loc(1e9, 1e9)
	if ix != im.NX-1 || iy != im.NY-1 {
		t.Errorf("overflow loc = (%d,%d)", ix, iy)
	}
}

func TestDepositWithdraw(t *testing.T) {
	im := newIm()
	im.Subdivide()
	im.Deposit(10, 10, 50)
	if im.TotalUsed() != 50 {
		t.Errorf("used = %g", im.TotalUsed())
	}
	im.Withdraw(10, 10, 50)
	if im.TotalUsed() != 0 {
		t.Errorf("used after withdraw = %g", im.TotalUsed())
	}
	im.Withdraw(10, 10, 50) // over-withdraw clamps at zero
	if im.TotalUsed() != 0 {
		t.Errorf("negative usage: %g", im.TotalUsed())
	}
}

func TestBlockageReducesCapacity(t *testing.T) {
	im := newIm()
	im.Subdivide()
	before := im.TotalCap()
	im.AddBlockage(0, 0, 300, 300)
	if im.TotalCap() >= before {
		t.Errorf("blockage did not reduce capacity")
	}
	// The blocked quadrant loses its utilization-scaled capacity.
	lost := before - im.TotalCap()
	if math.Abs(lost-300*300*0.7) > 1 {
		t.Errorf("lost %g, want %g", lost, 300.0*300.0*0.7)
	}
}

func TestBlockageSurvivesSubdivide(t *testing.T) {
	im := newIm()
	im.AddBlockage(0, 0, 300, 300)
	capBefore := im.TotalCap()
	im.Subdivide()
	if math.Abs(im.TotalCap()-capBefore) > 1 {
		t.Errorf("cap after subdivide %g, want %g", im.TotalCap(), capBefore)
	}
}

func TestOverfull(t *testing.T) {
	im := newIm()
	im.Subdivide()
	b := im.At(0, 0)
	b.AreaUsed = b.AreaCap * 1.2
	of := im.Overfull(0.1)
	if len(of) != 1 || of[0] != im.Index(0, 0) {
		t.Errorf("overfull = %v", of)
	}
	if len(im.Overfull(0.3)) != 0 {
		t.Errorf("tolerant overfull should be empty")
	}
}

// Property: Loc and Center are consistent — the center of any bin maps
// back to that bin.
func TestLocCenterRoundTrip(t *testing.T) {
	im := newIm()
	im.Subdivide()
	im.Subdivide()
	im.Subdivide()
	f := func(rawX, rawY uint8) bool {
		ix := int(rawX) % im.NX
		iy := int(rawY) % im.NY
		x, y := im.Center(ix, iy)
		gx, gy := im.Loc(x, y)
		return gx == ix && gy == iy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClearUsage(t *testing.T) {
	im := newIm()
	im.Deposit(1, 1, 10)
	b := im.BinAt(1, 1)
	b.WireUsedH = 5
	im.ClearUsage()
	if im.TotalUsed() != 0 || b.WireUsedH != 0 {
		t.Errorf("usage not cleared")
	}
}

func TestFree(t *testing.T) {
	im := newIm()
	b := im.At(0, 0)
	b.AreaUsed = 100
	if b.Free() != b.AreaCap-100 {
		t.Errorf("free = %g", b.Free())
	}
}

// TestLocFarCoordinates: coordinates far off the chip clamp to the edge
// bin on their own side, where the quotient overflows int, and every
// in-range bin agrees with truncating the quotient and clamping it.
func TestLocFarCoordinates(t *testing.T) {
	im := New(400, 400, 6, 0.7)
	im.Subdivide()
	im.Subdivide() // 4×4 bins of 100 µm
	for _, c := range []struct {
		v    float64
		want int
	}{{1e300, 3}, {1e19, 3}, {1e15, 3}, {401, 3}, {-1e300, 0}, {-1e19, 0}, {-0.5, 0}, {math.NaN(), 0}} {
		if ix, iy := im.Loc(c.v, c.v); ix != c.want || iy != c.want {
			t.Errorf("Loc(%g, %g) = (%d, %d), want (%d, %d)", c.v, c.v, ix, iy, c.want, c.want)
		}
	}
	old := func(v, bin float64, n int) int {
		i := int(v / bin)
		return min(max(i, 0), n-1)
	}
	for x := -150.0; x <= 550; x += 0.25 {
		ix, iy := im.Loc(x, x/2)
		if ix != old(x, im.BinW(), im.NX) || iy != old(x/2, im.BinH(), im.NY) {
			t.Fatalf("Loc(%g, %g) = (%d, %d), want the truncated quotient", x, x/2, ix, iy)
		}
	}
}

// TestLevelFor: the refinement depth halves the chip height until bins
// are at most two 6 µm rows high, as New always computed it, and a chip
// of any finite height gets a finite, bounded level.
func TestLevelFor(t *testing.T) {
	for _, c := range []struct {
		h    float64
		want int
	}{{10, 1}, {24, 1}, {48, 1}, {48.1, 2}, {600, 5}, {98304, 12}, {98305, 13}, {1e5, 13}, {1e308, 1019}} {
		if got := LevelFor(c.h, 6); got != c.want {
			t.Errorf("LevelFor(%g) = %d, want %d", c.h, got, c.want)
		}
	}
	for h := 1.0; h < 1e6; h *= 1.37 {
		old := 0
		for (h / float64(int(1)<<old)) > 2*6.0*2 {
			old++
		}
		if got := New(h, h, 6, 0.7).MaxLevel; got != max(old, 1) {
			t.Fatalf("chip %g: MaxLevel %d, want %d", h, got, max(old, 1))
		}
	}
}
