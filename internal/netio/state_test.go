package netio

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netlist"
)

func stateRig(t *testing.T, seed int64) *gen.Design {
	t.Helper()
	p, err := gen.Des(1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = seed
	return gen.Generate(cell.Default(), p)
}

// serialize renders the full restorable state: the netio text form plus
// the transient weights/scales the text form deliberately omits.
func serialize(t *testing.T, d *gen.Design) string {
	t.Helper()
	var b bytes.Buffer
	if err := Write(&b, d); err != nil {
		t.Fatal(err)
	}
	d.NL.Nets(func(n *netlist.Net) {
		fmt.Fprintf(&b, "w %s %g %g %d\n", n.Name, n.Weight, n.BaseWeight, n.Kind)
	})
	d.NL.Gates(func(g *netlist.Gate) {
		fmt.Fprintf(&b, "s %s %g %g %v\n", g.Name, g.AreaScale, g.Gain, g.Fixed)
	})
	return b.String()
}

// dump renders everything a fork must reproduce: serialize's text and
// transient state, the netlist counters, and object by object the gate,
// net and pin IDs, each net's pin order, gains, positions and flags.
func dump(t *testing.T, d *gen.Design) string {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(serialize(t, d))
	nl := d.NL
	fmt.Fprintf(&b, "edits=%d kind-epoch=%d gate-cap=%d net-cap=%d pins=%d\n",
		nl.Edits, nl.KindEpoch, nl.GateCap(), nl.NetCap(), nl.NumPins())
	nl.Nets(func(n *netlist.Net) {
		fmt.Fprintf(&b, "net %d %s pins", n.ID, n.Name)
		for _, p := range n.Pins() {
			fmt.Fprintf(&b, " %d", p.ID)
		}
		b.WriteByte('\n')
	})
	nl.Gates(func(g *netlist.Gate) {
		fmt.Fprintf(&b, "gate %d %s size=%d gain=%v scale=%v at=%v,%v placed=%v fixed=%v pins",
			g.ID, g.Name, g.SizeIdx, g.Gain, g.AreaScale, g.X, g.Y, g.Placed, g.Fixed)
		for _, p := range g.Pins {
			fmt.Fprintf(&b, " %d@%d", p.ID, p.NetPos())
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// roundTrip is the reference a fork must equal: Read(Write(d)).
func roundTrip(t *testing.T, d *gen.Design) *gen.Design {
	t.Helper()
	var b bytes.Buffer
	if err := Write(&b, d); err != nil {
		t.Fatal(err)
	}
	rt, err := Read(&b, d.NL.Lib)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	return rt
}

// checkFork asserts that forking a capture of d equals the text round
// trip in full state.
func checkFork(t *testing.T, d *gen.Design) {
	t.Helper()
	fk := CaptureDesign(d).Fork()
	if err := fk.NL.Check(); err != nil {
		t.Fatalf("forked netlist inconsistent: %v", err)
	}
	if got, want := dump(t, fk), dump(t, roundTrip(t, d)); got != want {
		t.Fatalf("fork differs from Read(Write(d)):\n%s", firstDiff(got, want))
	}
}

// firstDiff shows the first differing line of two dumps.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestForkMatchesTextRoundTrip is the differential oracle for Fork on
// every Table 1 design family, fresh and after perturb's tombstones,
// spliced-in buffer, resizes and weight changes.
func TestForkMatchesTextRoundTrip(t *testing.T) {
	for i := 1; i <= 5; i++ {
		p, err := gen.Des(i, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		p.Seed = int64(i)
		d := gen.Generate(cell.Default(), p)
		t.Run(fmt.Sprintf("Des%d", i), func(t *testing.T) { checkFork(t, d) })
		perturb(t, d.NL)
		t.Run(fmt.Sprintf("Des%d-perturbed", i), func(t *testing.T) { checkFork(t, d) })
	}
}

// TestForkIndependence pins the fork contract: forks of one State are
// identical and fully independent — editing one never leaks into a
// sibling, into later forks, or into the State, and editing the
// captured design after the capture does not reach the State either.
func TestForkIndependence(t *testing.T) {
	base := stateRig(t, 11)
	st := CaptureDesign(base)
	want := dump(t, roundTrip(t, base))

	forks := make([]*gen.Design, 4)
	var wg sync.WaitGroup
	for i := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			forks[i] = st.Fork()
		}()
	}
	wg.Wait()
	for i, d := range forks {
		if got := dump(t, d); got != want {
			t.Fatalf("fork %d differs from the round trip:\n%s", i, firstDiff(got, want))
		}
	}

	perturb(t, forks[0].NL)
	perturb(t, base.NL)
	if got := dump(t, forks[1]); got != want {
		t.Fatalf("editing a fork changed its sibling:\n%s", firstDiff(got, want))
	}
	if got := dump(t, st.Fork()); got != want {
		t.Fatalf("editing a fork or the base changed later forks:\n%s", firstDiff(got, want))
	}
	if st.Forks() != len(forks)+1 {
		t.Fatalf("Forks() = %d, want %d", st.Forks(), len(forks)+1)
	}
}

// perturb applies one of each mutation class a transform might make.
func perturb(t *testing.T, nl *netlist.Netlist) {
	t.Helper()
	lib := nl.Lib
	bufCell := lib.Cell("BUF")
	if bufCell == nil {
		t.Fatal("library has no BUF master")
	}
	var movable []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.IsPad() && !g.Fixed {
			movable = append(movable, g)
		}
	})
	if len(movable) < 8 {
		t.Fatalf("rig too small: %d movable gates", len(movable))
	}
	// Moves, resizes, gain and scale changes.
	nl.MoveGate(movable[0], 12, 34)
	nl.SetGain(movable[1], 3)
	nl.SetSize(movable[1], 0)
	nl.SetGain(movable[2], 2.5)
	nl.SetAreaScale(movable[3], 1.5)
	// Net weight change.
	var someNet *netlist.Net
	nl.Nets(func(n *netlist.Net) {
		if someNet == nil && n.Kind == netlist.Signal && n.NumPins() > 1 {
			someNet = n
		}
	})
	nl.SetNetWeight(someNet, 3.75)
	// Structural: splice a buffer into someNet's sinks (new gate + net).
	drv := someNet.Driver()
	if drv == nil {
		t.Fatal("net has no driver")
	}
	nb := nl.AddNet("rollback_net")
	gb := nl.AddGate("rollback_buf", bufCell)
	nl.SetSize(gb, 0)
	nl.MoveGate(gb, 50, 50)
	sinks := someNet.Sinks(nil)
	nl.MovePin(sinks[0], nb)
	nl.Connect(gb.Input(0), someNet)
	nl.Connect(gb.Output(), nb)
	// Structural: delete a gate outright (a remap-style removal).
	victim := movable[5]
	for _, p := range victim.Pins {
		nl.Disconnect(p)
	}
	nl.RemoveGate(victim)
}

func TestStateCaptureRestoreRoundTrip(t *testing.T) {
	d := stateRig(t, 7)
	nl := d.NL
	want := serialize(t, d)
	snap := Capture(nl)

	perturb(t, nl)
	if got := serialize(t, d); got == want {
		t.Fatal("perturbation did not change the design")
	}
	if err := snap.Restore(nl); err != nil {
		t.Fatal(err)
	}
	if err := nl.Check(); err != nil {
		t.Fatalf("restored netlist inconsistent: %v", err)
	}
	if got := serialize(t, d); got != want {
		t.Fatalf("state differs after restore:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

func TestStateRestoreIsIdempotent(t *testing.T) {
	d := stateRig(t, 8)
	nl := d.NL
	snap := Capture(nl)
	want := serialize(t, d)
	for i := 0; i < 2; i++ {
		perturb(t, nl)
		if err := snap.Restore(nl); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		if got := serialize(t, d); got != want {
			t.Fatalf("restore %d diverged", i)
		}
	}
}

func TestStateRestoreWithObservers(t *testing.T) {
	// Restore must flow through the notification API: an observer counting
	// events should hear the reverse edits.
	d := stateRig(t, 9)
	nl := d.NL
	obs := &countObs{}
	nl.Observe(obs)
	snap := Capture(nl)
	perturb(t, nl)
	seen := obs.events
	if err := snap.Restore(nl); err != nil {
		t.Fatal(err)
	}
	if obs.events == seen {
		t.Fatal("restore bypassed observer notifications")
	}
}

type countObs struct{ events int }

func (o *countObs) GateMoved(*netlist.Gate)   { o.events++ }
func (o *countObs) GateResized(*netlist.Gate) { o.events++ }
func (o *countObs) NetChanged(*netlist.Net)   { o.events++ }
func (o *countObs) GateAdded(*netlist.Gate)   { o.events++ }
func (o *countObs) GateRemoved(*netlist.Gate) { o.events++ }
