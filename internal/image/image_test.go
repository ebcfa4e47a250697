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
