package timing

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tps/internal/cell"
	"tps/internal/delay"
	"tps/internal/gen"
	"tps/internal/netio"
	"tps/internal/netlist"
	"tps/internal/steiner"
)

var forkModes = []delay.Mode{delay.GainBased, delay.WireLoad, delay.Actual}

// passKey keys a State's shared pass by mode, as scenario.ForkContext
// keys it.
type passKey struct{ mode delay.Mode }

// sharedPass is scenario.ForkContext's pass source: st's first pass in
// mode m, computed once on a private fork at the first asker's width.
func sharedPass(st *netio.State, m delay.Mode, workers int) *Pass {
	return st.Derived(passKey{m}, func(d *gen.Design) any {
		return FirstPass(d.NL, d.Period, st.Trees(), m, workers)
	}).(*Pass)
}

// forkStack forks st and builds the analyzer stack scenario.ForkContext
// builds on the fork — a Steiner cache seeded with the State's trees and
// an engine seeded with its shared pass — switched to mode m, at the
// given width.
func forkStack(st *netio.State, m delay.Mode, workers int) (*gen.Design, *Engine, func()) {
	fk := st.Fork()
	sc := steiner.NewCache(fk.NL)
	sc.Seed(st.Trees())
	sc.Workers = workers
	calc := delay.NewCalculator(fk.NL, sc, delay.GainBased)
	e := New(fk.NL, calc, fk.Period)
	e.Workers = workers
	e.Seed(func(m delay.Mode, w int) *Pass { return sharedPass(st, m, w) })
	e.SetMode(m)
	return fk, e, func() { e.Close(); calc.Close(); sc.Close() }
}

// spread places every movable gate of nl on a grid, so Actual-mode wires
// have length.
func spread(nl *netlist.Netlist) {
	i := 0
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			nl.MoveGate(g, float64(i%23)*17+3, float64(i/23%23)*19+5)
			i++
		}
	})
}

// forkEdit applies one random edit to a fork: a move, a resize, a gain
// change, or a buffer spliced behind a gate's signal output.
func forkEdit(rng *rand.Rand, nl *netlist.Netlist, movable []*netlist.Gate) []*netlist.Gate {
	g := movable[rng.Intn(len(movable))]
	switch rng.Intn(4) {
	case 0:
		nl.MoveGate(g, g.X+float64(rng.Intn(60)-20), g.Y+float64(rng.Intn(60)-20))
	case 1:
		if !g.IsSequential() && !g.IsPad() && len(g.Cell.Sizes) > 1 {
			nl.SetSize(g, rng.Intn(len(g.Cell.Sizes)))
		}
	case 2:
		nl.SetGain(g, 2+float64(rng.Intn(5)))
	case 3:
		z := g.Output()
		if z == nil || z.Net == nil || z.Net.Kind != netlist.Signal {
			break
		}
		out := z.Net
		buf := nl.AddGate("fbuf", nl.Lib.Cell("BUF"))
		nl.SetSize(buf, 0)
		nl.MoveGate(buf, g.X+4, g.Y+3)
		mid := nl.AddNet("fmid")
		nl.Disconnect(z)
		nl.Connect(z, mid)
		nl.Connect(buf.Pin("A"), mid)
		nl.Connect(buf.Output(), out)
		movable = append(movable, buf)
	}
	return movable
}

func movableGates(nl *netlist.Netlist) []*netlist.Gate {
	var out []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed && !g.IsPad() {
			out = append(out, g)
		}
	})
	return out
}

type forkCase struct {
	name string
	st   *netio.State
}

// forkCases captures Des1–5 at scale 0.02 with their gates spread over
// the die, each once as generated and once after edits that leave
// tombstones, spliced-in buffers and resized gates behind, plus a design
// with a combinational cycle.
func forkCases(t *testing.T) []forkCase {
	t.Helper()
	var cs []forkCase
	for i := 1; i <= 5; i++ {
		p, err := gen.Des(i, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		p.Seed = int64(i)
		d := gen.Generate(cell.Default(), p)
		spread(d.NL)
		cs = append(cs, forkCase{fmt.Sprintf("Des%d", i), netio.CaptureDesign(d)})
		rng := rand.New(rand.NewSource(int64(i)))
		mv := movableGates(d.NL)
		for k := 0; k < 12; k++ {
			mv = forkEdit(rng, d.NL, mv)
		}
		victim := mv[len(mv)/2]
		for _, p := range victim.Pins {
			d.NL.Disconnect(p)
		}
		d.NL.RemoveGate(victim)
		cs = append(cs, forkCase{fmt.Sprintf("Des%d-perturbed", i), netio.CaptureDesign(d)})
	}
	d := gen.Generate(cell.Default(), gen.Params{NumGates: 250, Levels: 8, Seed: 91})
	spread(d.NL)
	closeLoop(t, d.NL)
	return append(cs, forkCase{"cyclic", netio.CaptureDesign(d)})
}

// samePass fails t unless got, right after installing its first pass,
// holds bit for bit what ref holds after computing its own: every
// per-pin array, the pin and end-point lists, the levelization state and
// every calculator slot.
func samePass(t *testing.T, at string, got, ref *Engine) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]any{at}, args...)...)
	}
	if got.HasCycles != ref.HasCycles || got.levelsValid != ref.levelsValid ||
		got.allDirty != ref.allDirty || got.kindEpoch != ref.kindEpoch {
		fail("state cycles=%v valid=%v dirty=%v epoch=%d, want %v %v %v %d", got.HasCycles, got.levelsValid,
			got.allDirty, got.kindEpoch, ref.HasCycles, ref.levelsValid, ref.allDirty, ref.kindEpoch)
	}
	if len(got.pinOf) != len(ref.pinOf) {
		fail("%d pins, want %d", len(got.pinOf), len(ref.pinOf))
	}
	for id := range ref.pinOf {
		if (got.pinOf[id] == nil) != (ref.pinOf[id] == nil) || got.pinOf[id] != nil && got.pinOf[id].ID != id {
			fail("pinOf[%d] differs", id)
		}
		if math.Float64bits(got.arr[id]) != math.Float64bits(ref.arr[id]) ||
			math.Float64bits(got.req[id]) != math.Float64bits(ref.req[id]) ||
			math.Float64bits(got.late[id]) != math.Float64bits(ref.late[id]) {
			fail("pin %d arr/req/late %v/%v/%v, want %v/%v/%v", id, got.arr[id], got.req[id], got.late[id],
				ref.arr[id], ref.req[id], ref.late[id])
		}
		if got.level[id] != ref.level[id] || got.outPin[id] != ref.outPin[id] || got.flags[id] != ref.flags[id] {
			fail("pin %d level/out/flags %d/%d/%d, want %d/%d/%d", id, got.level[id], got.outPin[id], got.flags[id],
				ref.level[id], ref.outPin[id], ref.flags[id])
		}
		if got.inPendArr[id] || got.inPendReq[id] {
			fail("pin %d left pending", id)
		}
	}
	if len(got.pendArr)+len(got.pendReq) != 0 {
		fail("%d pins queued", len(got.pendArr)+len(got.pendReq))
	}
	if len(got.endpoints) != len(ref.endpoints) {
		fail("%d end points, want %d", len(got.endpoints), len(ref.endpoints))
	}
	for i, p := range ref.endpoints {
		if got.endpoints[i].ID != p.ID {
			fail("end point %d is pin %d, want %d", i, got.endpoints[i].ID, p.ID)
		}
	}
	refNets := make([]*netlist.Net, ref.nl.NetCap())
	ref.nl.Nets(func(n *netlist.Net) { refNets[n.ID] = n })
	got.nl.Nets(func(n *netlist.Net) {
		r := refNets[n.ID]
		if g, w := got.Calc.Load(n), ref.Calc.Load(r); math.Float64bits(g) != math.Float64bits(w) {
			fail("net %d load %v, want %v", n.ID, g, w)
		}
		for i := 0; i < n.NumPins(); i++ {
			if g, w := got.Calc.WireDelay(n, i), ref.Calc.WireDelay(r, i); math.Float64bits(g) != math.Float64bits(w) {
				fail("net %d pin %d wire delay %v, want %v", n.ID, i, g, w)
			}
		}
	})
}

// TestForkTimingMatchesFreshPass is the installed pass's oracle. On every
// case and mode, a seeded fork's first query installs the State's pass —
// no pin evaluated, no net solved — and the engine and calculator then
// hold bit for bit what an unseeded engine's first pass computes on
// another fork. Random moves, resizes and buffer splices on the seeded
// fork must then leave every pin matching a fresh engine on the edited
// netlist.
func TestForkTimingMatchesFreshPass(t *testing.T) {
	for ci, fc := range forkCases(t) {
		for _, m := range forkModes {
			at := fmt.Sprintf("%s/%v", fc.name, m)
			fk, eng, closeEng := forkStack(fc.st, m, 1)
			ref := fc.st.Fork()
			refEng, closeRef := engineStack(ref.NL, ref.Period, 1, m)
			eng.Flush()
			refEng.Flush()
			if eng.Recomputes != 0 || eng.Calc.Solves != 0 {
				t.Fatalf("%s: seeded fork evaluated %d pins and solved %d nets on its first query",
					at, eng.Recomputes, eng.Calc.Solves)
			}
			if refEng.Recomputes == 0 {
				t.Fatalf("%s: unseeded engine did no work", at)
			}
			samePass(t, at, eng, refEng)
			closeRef()

			rng := rand.New(rand.NewSource(int64(10*ci) + int64(m)))
			mv := movableGates(fk.NL)
			for round := 0; round < 40; round++ {
				mv = forkEdit(rng, fk.NL, mv)
				if rng.Intn(3) == 0 {
					eng.WorstSlack()
				}
			}
			checkMatchesFresh(t, fk.NL, fk.Period, eng, at+" after edits")
			closeEng()
		}
	}
}

// TestForkEditedBeforeFirstQuery: a fork that hears an edit before its
// first query computes its own first pass, with the counters of an
// unforked engine given the same edit.
func TestForkEditedBeforeFirstQuery(t *testing.T) {
	st := forkCases(t)[0].st
	edit := func(nl *netlist.Netlist) {
		g := movableGates(nl)[3]
		nl.MoveGate(g, g.X+7, g.Y+5)
	}
	fk, eng, closeEng := forkStack(st, delay.Actual, 1)
	defer closeEng()
	ref := st.Fork()
	refEng, closeRef := engineStack(ref.NL, ref.Period, 1, delay.Actual)
	defer closeRef()
	edit(fk.NL)
	edit(ref.NL)
	if eng.WorstSlack() != refEng.WorstSlack() {
		t.Fatal("worst slack differs")
	}
	if eng.Recomputes == 0 || eng.Recomputes != refEng.Recomputes || eng.Calc.Solves != refEng.Calc.Solves {
		t.Fatalf("edited fork: %d recomputes, %d solves; unforked engine: %d, %d",
			eng.Recomputes, eng.Calc.Solves, refEng.Recomputes, refEng.Calc.Solves)
	}
	samePass(t, "edited fork", eng, refEng)
}

// TestForkTimingCopyOnWrite installs one State's pass in four forks at
// once. One fork moves every gate, so it re-solves every shared net over
// two workers and re-evaluates every pin, while the others read the
// shared solutions. Afterwards a new fork still installs a pass equal to
// an unforked engine's: a re-solve that wrote into a shared solution
// would have changed it. Under -race it also shows that no fork writes
// what another reads.
func TestForkTimingCopyOnWrite(t *testing.T) {
	st := forkCases(t)[2].st
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fk, eng, closeEng := forkStack(st, delay.Actual, 2)
			defer closeEng()
			eng.WorstSlack()
			if i == 0 {
				fk.NL.Gates(func(g *netlist.Gate) {
					if !g.Fixed {
						fk.NL.MoveGate(g, g.X+3, g.Y+1)
					}
				})
			}
			eng.WorstSlack()
			eng.TNS()
		}()
	}
	wg.Wait()
	_, eng, closeEng := forkStack(st, delay.Actual, 1)
	defer closeEng()
	ref := st.Fork()
	refEng, closeRef := engineStack(ref.NL, ref.Period, 1, delay.Actual)
	defer closeRef()
	eng.Flush()
	refEng.Flush()
	samePass(t, "fork after the concurrent forks", eng, refEng)
}

// TestForkInstallConditions: a seeded engine whose period, setup, BinDim
// or wire-load model differs from the pass's computes its own pass.
func TestForkInstallConditions(t *testing.T) {
	st := forkCases(t)[0].st
	for name, tweak := range map[string]func(*Engine){
		"period": func(e *Engine) { e.SetPeriod(e.Period + 1) },
		"setup":  func(e *Engine) { e.Setup++ },
		"bindim": func(e *Engine) { e.Calc.SetBinDim(5) },
		"wlm":    func(e *Engine) { e.Calc.WLM = &delay.WireLoadModel{A: 61, B: 0.8, Tech: e.Calc.Tech} },
	} {
		_, eng, closeEng := forkStack(st, delay.Actual, 1)
		tweak(eng)
		eng.Flush()
		if eng.Recomputes == 0 {
			t.Errorf("%s: installed a pass computed under other parameters", name)
		}
		closeEng()
	}
}
