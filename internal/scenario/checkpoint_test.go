package scenario

import (
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netlist"
)

// TestCheckpointAllocatesNothingAfterTheFirst: every protected step of a
// context checkpoints into the same State and bin-usage copy, so once the
// first step has captured the design, later steps allocate nothing for
// their checkpoint, even after edits in between, and a rollback to the
// overwritten checkpoint restores the design as it was at that step.
func TestCheckpointAllocatesNothingAfterTheFirst(t *testing.T) {
	d := gen.Generate(cell.Default(), gen.Params{NumGates: 400, Levels: 8, Seed: 5})
	c := NewContext(d, 1)
	defer c.Close()
	for i := 0; i < 3; i++ {
		c.Im.Subdivide()
	}
	c.checkpoint()
	ckpt := c.ckpt
	var g *netlist.Gate
	c.NL.Gates(func(x *netlist.Gate) {
		if g == nil && !x.Fixed && !x.IsPad() {
			g = x
		}
	})
	c.NL.MoveGate(g, 40, 30)
	if n := testing.AllocsPerRun(10, c.checkpoint); n != 0 {
		t.Fatalf("a protected step's checkpoint allocates %v times after the first", n)
	}
	if c.ckpt != ckpt {
		t.Fatal("checkpoint replaced its State instead of overwriting it")
	}
	c.NL.MoveGate(g, 10, 20)
	if err := c.ckpt.Restore(c.NL); err != nil {
		t.Fatal(err)
	}
	if g.X != 40 || g.Y != 30 {
		t.Fatalf("rollback put the gate at (%g, %g), want the last checkpoint's (40, 30)", g.X, g.Y)
	}
}
