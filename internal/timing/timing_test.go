package timing

import (
	"math"
	"testing"

	"tps/internal/cell"
	"tps/internal/delay"
	"tps/internal/gen"
	"tps/internal/netlist"
	"tps/internal/steiner"
)

// chainRig: PI → INV×k → PO, all gain-based.
func chainRig(t *testing.T, k int, period float64) (*netlist.Netlist, *Engine, []*netlist.Gate) {
	t.Helper()
	nl := netlist.New("t", cell.Default())
	lib := nl.Lib
	pi := nl.AddGate("pi", lib.Cell("PAD"))
	pi.SizeIdx = 0
	pi.Fixed = true
	nl.MoveGate(pi, 0, 0)
	prev := nl.AddNet("n0")
	nl.Connect(pi.Pin("O"), prev)
	var gates []*netlist.Gate
	for i := 0; i < k; i++ {
		g := nl.AddGate("g", lib.Cell("INV"))
		nl.Connect(g.Pin("A"), prev)
		prev = nl.AddNet("n")
		nl.Connect(g.Output(), prev)
		nl.MoveGate(g, float64(i+1)*10, 0)
		gates = append(gates, g)
	}
	po := nl.AddGate("po", lib.Cell("PAD"))
	po.SizeIdx = 0
	po.Fixed = true
	nl.MoveGate(po, float64(k+1)*10, 0)
	nl.Connect(po.Pin("I"), prev)
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.GainBased)
	e := New(nl, calc, period)
	return nl, e, gates
}

func TestChainArrivalGainMode(t *testing.T) {
	nl, e, gates := chainRig(t, 5, 1000)
	tau := nl.Lib.Tech.Tau
	stage := (1.0 + 1.0*4.0) * tau // INV p=1,g=1,gain=4
	want := 5 * stage
	po := findPad(nl, "po")
	if got := e.Arrival(po.Pin("I")); math.Abs(got-want) > 1e-6 {
		t.Errorf("PO arrival = %g, want %g", got, want)
	}
	if ws := e.WorstSlack(); math.Abs(ws-(1000-want)) > 1e-6 {
		t.Errorf("worst slack = %g, want %g", ws, 1000-want)
	}
	// Slack is uniform along a single chain.
	for _, g := range gates {
		if s := e.Slack(g.Output()); math.Abs(s-(1000-want)) > 1e-6 {
			t.Errorf("gate slack = %g", s)
		}
	}
}

func findPad(nl *netlist.Netlist, name string) *netlist.Gate {
	var out *netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if g.Name == name {
			out = g
		}
	})
	return out
}

func TestNegativeSlack(t *testing.T) {
	_, e, _ := chainRig(t, 10, 100)
	if ws := e.WorstSlack(); ws >= 0 {
		t.Errorf("slack = %g, want negative", ws)
	}
}

func TestIncrementalMoveOnlyRecomputesCone(t *testing.T) {
	nl, e, gates := chainRig(t, 30, 5000)
	e.Flush()
	before := e.Recomputes
	// Moving a middle gate in gain mode changes no delay values, but the
	// engine must still only visit the touched pins, not the world.
	nl.MoveGate(gates[15], 500, 500)
	e.Flush()
	delta := e.Recomputes - before
	if delta == 0 {
		t.Fatalf("no recomputation after move")
	}
	if delta > 30 {
		t.Errorf("move recomputed %d pins; expected a local cone", delta)
	}
}

func TestIncrementalMatchesFullRecompute(t *testing.T) {
	d := gen.Generate(cell.Default(), gen.Params{NumGates: 300, Levels: 8, Seed: 42})
	nl := d.NL
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.Actual)
	e := New(nl, calc, d.Period)

	// Place all gates somewhere deterministic.
	i := 0
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			nl.MoveGate(g, float64(i%20)*30, float64(i/20%20)*30)
			i++
		}
	})
	_ = e.WorstSlack()

	// Random-ish incremental edits.
	var moved []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed && g.ID%17 == 0 {
			moved = append(moved, g)
		}
	})
	for _, g := range moved {
		nl.MoveGate(g, g.X+97, g.Y+13)
	}
	incremental := e.WorstSlack()

	// Fresh engine over the same state = ground truth.
	st2 := steiner.NewCache(nl)
	calc2 := delay.NewCalculator(nl, st2, delay.Actual)
	e2 := New(nl, calc2, d.Period)
	full := e2.WorstSlack()

	if math.Abs(incremental-full) > 1e-6 {
		t.Errorf("incremental slack %g != full %g", incremental, full)
	}
}

func TestIncrementalAfterResize(t *testing.T) {
	d := gen.Generate(cell.Default(), gen.Params{NumGates: 200, Levels: 6, Seed: 7})
	nl := d.NL
	i := 0
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			nl.MoveGate(g, float64(i%15)*40, float64(i/15%15)*40)
			i++
		}
	})
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.Actual)
	e := New(nl, calc, d.Period)
	_ = e.WorstSlack()
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed && !g.IsSequential() && g.ID%11 == 0 {
			nl.SetSize(g, 2)
		}
	})
	incr := e.WorstSlack()
	st2 := steiner.NewCache(nl)
	calc2 := delay.NewCalculator(nl, st2, delay.Actual)
	full := New(nl, calc2, d.Period).WorstSlack()
	if math.Abs(incr-full) > 1e-6 {
		t.Errorf("incremental %g != full %g after resize", incr, full)
	}
}

func TestIncrementalAfterTopologyEdit(t *testing.T) {
	nl, e, gates := chainRig(t, 5, 1000)
	ws1 := e.WorstSlack()
	// Insert a buffer after gates[2] — a topology edit.
	g := gates[2]
	out := g.Output().Net
	buf := nl.AddGate("buf", nl.Lib.Cell("BUF"))
	nl.MoveGate(buf, g.X+5, g.Y)
	mid := nl.AddNet("mid")
	nl.Disconnect(g.Output())
	nl.Connect(g.Output(), mid)
	nl.Connect(buf.Pin("A"), mid)
	nl.Connect(buf.Output(), out)
	ws2 := e.WorstSlack()
	tau := nl.Lib.Tech.Tau
	wantDrop := (2.0 + 1.0*4.0) * tau // BUF p=2,g=1,gain 4
	if math.Abs((ws1-ws2)-wantDrop) > 1e-6 {
		t.Errorf("slack drop = %g, want %g", ws1-ws2, wantDrop)
	}
}

func TestRegisterPaths(t *testing.T) {
	nl := netlist.New("t", cell.Default())
	lib := nl.Lib
	r1 := nl.AddGate("r1", lib.Cell("DFF"))
	r1.SizeIdx = 0
	r2 := nl.AddGate("r2", lib.Cell("DFF"))
	r2.SizeIdx = 0
	g := nl.AddGate("g", lib.Cell("INV"))
	q := nl.AddNet("q")
	z := nl.AddNet("z")
	nl.Connect(r1.Pin("Q"), q)
	nl.Connect(g.Pin("A"), q)
	nl.Connect(g.Output(), z)
	nl.Connect(r2.Pin("D"), z)
	for i, gg := range []*netlist.Gate{r1, r2, g} {
		nl.MoveGate(gg, float64(i)*10, 0)
	}
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.GainBased)
	e := New(nl, calc, 1000)
	tau := nl.Lib.Tech.Tau
	clk2q := (6.0 + 1.5*4.0) * tau
	inv := (1.0 + 1.0*4.0) * tau
	wantArr := clk2q + inv
	if got := e.Arrival(r2.Pin("D")); math.Abs(got-wantArr) > 1e-6 {
		t.Errorf("D arrival = %g, want %g", got, wantArr)
	}
	wantSlack := (1000 - e.Setup) - wantArr
	if got := e.Slack(r2.Pin("D")); math.Abs(got-wantSlack) > 1e-6 {
		t.Errorf("D slack = %g, want %g", got, wantSlack)
	}
}

func TestClockNetsExcluded(t *testing.T) {
	d := gen.Generate(cell.Default(), gen.Params{NumGates: 100, Levels: 5, Seed: 3})
	nl := d.NL
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.GainBased)
	e := New(nl, calc, d.Period)
	_ = e.WorstSlack()
	nl.Gates(func(g *netlist.Gate) {
		if g.IsSequential() {
			ck := g.ClockPin()
			if a := e.Arrival(ck); a != 0 {
				t.Errorf("clock pin arrival = %g, want 0 (ideal)", a)
			}
		}
	})
}

func TestCriticalNetsNonEmptyWhenNegative(t *testing.T) {
	_, e, _ := chainRig(t, 10, 100)
	nets := e.CriticalNets(10)
	if len(nets) == 0 {
		t.Fatalf("no critical nets despite negative slack")
	}
	// Every reported net is within margin of worst.
	ws := e.WorstSlack()
	for _, n := range nets {
		if s := e.NetSlack(n); s > ws+10+1e-9 {
			t.Errorf("net %s slack %g outside margin of %g", n.Name, s, ws)
		}
	}
}

func TestCriticalEmptyWhenPositive(t *testing.T) {
	_, e, _ := chainRig(t, 3, 10000)
	if nets := e.CriticalNets(50); len(nets) != 0 {
		t.Errorf("critical nets on a passing design: %d", len(nets))
	}
	if gs := e.CriticalGates(50); len(gs) != 0 {
		t.Errorf("critical gates on a passing design: %d", len(gs))
	}
}

func TestSetPeriodShiftsSlack(t *testing.T) {
	_, e, _ := chainRig(t, 5, 1000)
	ws1 := e.WorstSlack()
	e.SetPeriod(1100)
	ws2 := e.WorstSlack()
	if math.Abs((ws2-ws1)-100) > 1e-6 {
		t.Errorf("period +100 moved slack by %g", ws2-ws1)
	}
}

func TestTNS(t *testing.T) {
	_, e, _ := chainRig(t, 10, 100)
	if e.TNS() >= 0 {
		t.Errorf("TNS = %g, want negative", e.TNS())
	}
	e.SetPeriod(1e6)
	if e.TNS() != 0 {
		t.Errorf("TNS = %g on relaxed design", e.TNS())
	}
}

func TestCombinationalCycleDoesNotHang(t *testing.T) {
	nl := netlist.New("t", cell.Default())
	g1 := nl.AddGate("g1", nl.Lib.Cell("INV"))
	g2 := nl.AddGate("g2", nl.Lib.Cell("INV"))
	n1, n2 := nl.AddNet("n1"), nl.AddNet("n2")
	nl.Connect(g1.Output(), n1)
	nl.Connect(g2.Pin("A"), n1)
	nl.Connect(g2.Output(), n2)
	nl.Connect(g1.Pin("A"), n2)
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.GainBased)
	e := New(nl, calc, 100)
	_ = e.WorstSlack() // must terminate
	if !e.HasCycles {
		t.Errorf("cycle not detected")
	}
	// An edit on the cycle queues its pins for an incremental flush,
	// which must not chase the frozen required times around the loop.
	nl.MoveGate(g1, 10, 0)
	_ = e.WorstSlack()
}

func TestGenDesignTimes(t *testing.T) {
	d := gen.Generate(cell.Default(), gen.Params{NumGates: 500, Levels: 10, Seed: 1})
	nl := d.NL
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.GainBased)
	e := New(nl, calc, d.Period)
	ws := e.WorstSlack()
	if math.IsInf(ws, 0) || math.IsNaN(ws) {
		t.Fatalf("worst slack = %g", ws)
	}
	if e.HasCycles {
		t.Fatalf("generated design has combinational cycles")
	}
	if len(e.Endpoints()) == 0 {
		t.Fatalf("no endpoints")
	}
}
