package place

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"tps/internal/netlist"
	"tps/internal/steiner"
)

// deltaDesign builds a placed design of the given size. Two calls with
// the same arguments return independent but identical designs, so the
// delta scorer and the full-rescore reference evaluator can each run
// DetailedPlace from the same starting state. With legal unset the rows
// are left as spreading leaves them: cells off row centers and
// overlapping.
func deltaDesign(t *testing.T, gates int, seed int64, legal bool) (*netlist.Netlist, float64, float64) {
	t.Helper()
	d, _, p := testDesign(t, gates, seed)
	p.Partition(100)
	p.SpreadWithinBins()
	d.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed && g.SizeIdx < 0 {
			d.NL.SetSize(g, 0)
		}
	})
	if legal {
		Legalize(d.NL, d.ChipW, d.ChipH)
	}
	return d.NL, d.ChipW, d.ChipH
}

// detailedMatchesFullRescore runs DetailedPlace with opt on two identical
// designs, once with the delta scorer and once with the fullRescore
// reference. Both apply the identical affected-nets decision rule, so
// they must accept the same moves, land every gate on the same
// coordinates and leave the same Steiner total.
func detailedMatchesFullRescore(t *testing.T, gates int, seed int64, legal bool, opt DetailedOptions) {
	t.Helper()
	nlA, w, h := deltaDesign(t, gates, seed, legal)
	nlB, _, _ := deltaDesign(t, gates, seed, legal)

	stA := steiner.NewCache(nlA)
	stB := steiner.NewCache(nlB)
	defer stA.Close()
	defer stB.Close()

	opt.fullRescore = false
	accA := DetailedPlace(nlA, w, h, opt)
	opt.fullRescore = true
	accB := DetailedPlace(nlB, w, h, opt)

	if accA != accB {
		t.Errorf("seed %d: delta accepted %d moves, full rescore accepted %d", seed, accA, accB)
	}
	nlA.Gates(func(ga *netlist.Gate) {
		gb := nlB.GateByID(ga.ID)
		if gb == nil {
			t.Fatalf("seed %d: gate %s missing from reference run", seed, ga.Name)
		}
		if ga.X != gb.X || ga.Y != gb.Y {
			t.Errorf("seed %d: gate %s at (%g,%g) delta vs (%g,%g) full",
				seed, ga.Name, ga.X, ga.Y, gb.X, gb.Y)
		}
	})
	if stA.Total() != stB.Total() {
		t.Errorf("seed %d: final WL %v (delta) != %v (full)", seed, stA.Total(), stB.Total())
	}
}

// TestDeltaScoringMatchesFullRescore pins the delta scorer to the
// fullRescore reference on two legalized designs at the default options.
func TestDeltaScoringMatchesFullRescore(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		detailedMatchesFullRescore(t, 300, seed, true, DefaultDetailedOptions())
	}
}

// FuzzDetailedPlaceEquivalence is TestDeltaScoringMatchesFullRescore over
// fuzzed designs and options: gate count 40–400, window 2–64 cells (a
// window of more than 64 nets needs several bitset words), permutation
// groups of 2–4, net pin limit, one or two passes, 1–3 workers, and
// legalized or raw rows.
func FuzzDetailedPlaceEquivalence(f *testing.F) {
	f.Add(int64(3), uint16(300), uint8(20), uint8(3), uint8(64), uint8(1), uint8(1), true)
	// Windows of 68–79 nets: two bitset words.
	f.Add(int64(7), uint16(400), uint8(48), uint8(3), uint8(64), uint8(2), uint8(2), true)
	// Unlegalized rows: cells off row centers and overlapping.
	f.Add(int64(5), uint16(160), uint8(12), uint8(4), uint8(8), uint8(1), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, gates uint16, window, permute, maxPins, passes, workers uint8, legal bool) {
		opt := DetailedOptions{
			WindowSize:      within(int(window), 2, 64),
			MaxPermute:      within(int(permute), 2, 4),
			MaxScoreNetPins: within(int(maxPins), 2, 128),
			Passes:          within(int(passes), 1, 2),
			Workers:         within(int(workers), 1, 3),
		}
		detailedMatchesFullRescore(t, within(int(gates), 40, 400), seed, legal, opt)
	})
}

// within maps a non-negative fuzzed value into [lo, hi], leaving values
// already in range as they are.
func within(v, lo, hi int) int {
	if v >= lo && v <= hi {
		return v
	}
	return lo + v%(hi-lo+1)
}

// hpwlAllPins is weight · steiner.HPWL over every pin of n: the score a
// window scorer must reproduce without trusting its own boxes.
func hpwlAllPins(n *netlist.Net) float64 {
	var pts []steiner.Point
	for _, p := range n.Pins() {
		pts = append(pts, steiner.Point{X: p.X(), Y: p.Y()})
	}
	return n.Weight * steiner.HPWL(pts)
}

// TestWindowScorerCacheStaysFresh drives a windowScorer through random
// swap/revert churn on a 12-gate window and on a whole row of more than
// 64 nets, and checks two things against brute force after every step:
// each affected set lists exactly the window nets touching the span, in
// ascending index order, and each cached per-net contribution equals
// steiner.HPWL over all of the net's pins — not the scorer's own
// fixed-pin boxes — including after rejected swaps whose revert re-pack
// squeezes inter-cell gaps and shifts positions. It also checks that the
// fullRescore reference reads every pin: its scores follow a gate outside
// the window that the boxes assume fixed.
func TestWindowScorerCacheStaysFresh(t *testing.T) {
	nl, _, _ := deltaDesign(t, 400, 5, true)
	rows := map[float64][]*netlist.Gate{}
	var fullest []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed && !g.IsPad() {
			rows[g.Y] = append(rows[g.Y], g)
			if len(rows[g.Y]) > len(fullest) {
				fullest = rows[g.Y]
			}
		}
	})
	slices.SortFunc(fullest, func(a, b *netlist.Gate) int { return cmp.Compare(a.X, b.X) })
	opt := DefaultDetailedOptions()
	for _, win := range [][]*netlist.Gate{fullest[:12], fullest} {
		sc := newWindowScorer(win, opt)
		if len(win) == len(fullest) && len(sc.nets) <= 64 {
			t.Fatalf("fullest row has only %d scored nets; want a multi-word bitset", len(sc.nets))
		}
		rng := rand.New(rand.NewSource(17))
		verify := func(ctx string) {
			t.Helper()
			for i, n := range sc.nets {
				if got, want := sc.contrib[i], hpwlAllPins(n); got != want {
					t.Fatalf("%s: cached contrib of net %s = %v, HPWL over all pins = %v",
						ctx, n.Name, got, want)
				}
			}
		}
		verify("initial")

		for step := 0; step < 60; step++ {
			i := rng.Intn(len(win) - 1)
			j := i + 1 + rng.Intn(len(win)-i-1)
			span := win[i : j+1]
			aff := sc.affected(span)
			var want []int32
			for k, n := range sc.nets {
				touches := false
				for _, p := range n.Pins() {
					touches = touches || slices.Contains(span, p.Gate)
				}
				if touches {
					want = append(want, int32(k))
				}
			}
			if !slices.Equal(aff, want) {
				t.Fatalf("window of %d: affected(win[%d:%d]) = %v, want %v", len(win), i, j+1, aff, want)
			}
			before := sc.sumBefore(aff)
			sc.savePos(span)
			swapSlots(nl, win, i, j)
			if after := sc.sumAfter(aff); after < before-1e-9 {
				sc.commit(aff)
			} else {
				swapSlots(nl, win, i, j) // revert
				if sc.posChanged(span) {
					sc.refresh(aff)
				}
			}
			verify("after swap")
		}
	}

	win := fullest[:12]
	opt.fullRescore = true
	ref := newWindowScorer(win, opt)
	for k, n := range ref.nets {
		for _, p := range n.Pins() {
			if slices.Contains(win, p.Gate) {
				continue
			}
			g := p.Gate
			x := g.X
			nl.MoveGate(g, x+1000, g.Y)
			if got, want := ref.netScore(k), hpwlAllPins(n); got != want {
				t.Fatalf("reference score of net %s = %v after an outside move, HPWL over all pins = %v", n.Name, got, want)
			}
			nl.MoveGate(g, x, g.Y)
			return
		}
	}
	t.Fatal("no window net reaches outside the window")
}
