package netio

import (
	"fmt"
	"math"
	"testing"

	"tps/internal/delay"
	"tps/internal/gen"
	"tps/internal/netlist"
	"tps/internal/steiner"
	"tps/internal/timing"
)

// passKey keys a State's shared first timing pass by delay mode, as
// scenario.ForkContext keys it.
type passKey struct{ mode delay.Mode }

// timingStack builds a fork's analyzer stack in delay mode m. Seeded, it
// is the stack scenario.ForkContext builds: the Steiner cache starts from
// st's trees and the engine installs st's shared first pass.
func timingStack(st *State, m delay.Mode, seeded bool) (*gen.Design, *timing.Engine, func()) {
	fk := st.Fork()
	sc := steiner.NewCache(fk.NL)
	calc := delay.NewCalculator(fk.NL, sc, m)
	e := timing.New(fk.NL, calc, fk.Period)
	if seeded {
		sc.Seed(st.Trees())
		e.Seed(func(m delay.Mode, workers int) *timing.Pass {
			return st.Derived(passKey{m}, func(d *gen.Design) any {
				return timing.FirstPass(d.NL, d.Period, st.Trees(), m, workers)
			}).(*timing.Pass)
		})
	}
	return fk, e, func() { e.Close(); calc.Close(); sc.Close() }
}

// checkForkTiming is the installed-pass oracle for one State: in every
// delay mode, a seeded fork's first query installs the State's pass —
// no pin evaluated, no net solved — and every pin's arrival and required
// time, every end point, the worst slack, TNS and every net's load and
// wire delays equal, bit for bit, an unseeded fork's own first pass.
func checkForkTiming(t *testing.T, st *State) {
	t.Helper()
	for _, m := range []delay.Mode{delay.GainBased, delay.WireLoad, delay.Actual} {
		fk, got, closeGot := timingStack(st, m, true)
		ref, want, closeWant := timingStack(st, m, false)
		same := func(what string, g, w float64) {
			t.Helper()
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%v: %s %v, want %v", m, what, g, w)
			}
		}
		same("worst slack", got.WorstSlack(), want.WorstSlack())
		if got.Recomputes != 0 || got.Calc.Solves != 0 {
			t.Fatalf("%v: seeded fork evaluated %d pins and solved %d nets", m, got.Recomputes, got.Calc.Solves)
		}
		same("TNS", got.TNS(), want.TNS())
		if got.HasCycles != want.HasCycles {
			t.Fatalf("%v: HasCycles %v, want %v", m, got.HasCycles, want.HasCycles)
		}
		ge, we := got.Endpoints(), want.Endpoints()
		if len(ge) != len(we) {
			t.Fatalf("%v: %d end points, want %d", m, len(ge), len(we))
		}
		for i := range we {
			if ge[i].ID != we[i].ID {
				t.Fatalf("%v: end point %d is pin %d, want %d", m, i, ge[i].ID, we[i].ID)
			}
		}
		refPins := make([]*netlist.Pin, ref.NL.NumPins())
		ref.NL.Gates(func(g *netlist.Gate) {
			for _, p := range g.Pins {
				refPins[p.ID] = p
			}
		})
		fk.NL.Gates(func(g *netlist.Gate) {
			for _, p := range g.Pins {
				q := refPins[p.ID]
				same(fmt.Sprintf("pin %d arrival", p.ID), got.Arrival(p), want.Arrival(q))
				same(fmt.Sprintf("pin %d required", p.ID), got.Required(p), want.Required(q))
			}
		})
		refNets := make([]*netlist.Net, ref.NL.NetCap())
		ref.NL.Nets(func(n *netlist.Net) { refNets[n.ID] = n })
		fk.NL.Nets(func(n *netlist.Net) {
			r := refNets[n.ID]
			same(fmt.Sprintf("net %d load", n.ID), got.Calc.Load(n), want.Calc.Load(r))
			for i := 0; i < n.NumPins(); i++ {
				same(fmt.Sprintf("net %d pin %d wire delay", n.ID, i), got.Calc.WireDelay(n, i), want.Calc.WireDelay(r, i))
			}
		})
		if got.Recomputes != 0 || got.Calc.Solves != 0 {
			t.Fatalf("%v: reading the installed pass evaluated %d pins and solved %d nets", m, got.Recomputes, got.Calc.Solves)
		}
		closeGot()
		closeWant()
	}
}

// TestRecaptureMatchesCapture: a State recaptured over an earlier
// capture of another design forks and restores exactly as a fresh
// Capture of the same netlist does, and once it fits the design it
// allocates nothing.
func TestRecaptureMatchesCapture(t *testing.T) {
	d := stateRig(t, 13)
	s := CaptureDesign(stateRig(t, 14))
	s.Trees()
	s.Recapture(d.NL)
	if s.Period() != 0 || s.Forks() != 0 {
		t.Fatalf("recapture kept the old frame or fork count: period %g, %d forks", s.Period(), s.Forks())
	}
	want := Capture(d.NL)
	if got, w := dump(t, s.Fork()), dump(t, want.Fork()); got != w {
		t.Fatalf("recaptured State forks differently:\n%s", firstDiff(got, w))
	}
	before := serialize(t, d)
	perturb(t, d.NL)
	if err := s.Restore(d.NL); err != nil {
		t.Fatal(err)
	}
	if got := serialize(t, d); got != before {
		t.Fatal("recaptured State restored a different design")
	}
	perturb(t, d.NL) // grows the design past the capture
	s.Recapture(d.NL)
	if n := testing.AllocsPerRun(10, func() { s.Recapture(d.NL) }); n != 0 {
		t.Fatalf("Recapture into a State that fits allocates %v times", n)
	}
	if got, w := dump(t, s.Fork()), dump(t, Capture(d.NL).Fork()); got != w {
		t.Fatalf("recaptured State forks differently after growth:\n%s", firstDiff(got, w))
	}
}
