package scenario_test

import (
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/scenario"
)

// After a rejected protected step (checkpoint → wreck → rollback)
// followed by further edits, the incremental analyzers must agree
// exactly with a from-scratch analyzer stack built over the same
// netlist: the rollback replays reverse edits through the observer API,
// so the Steiner cache and congestion analyzer carry no phantom state.
func TestRollbackThenEditsAnalyzerConsistency(t *testing.T) {
	p, err := gen.Des(1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 11
	d := gen.Generate(cell.Default(), p)
	c := scenario.NewContext(d, 11)
	c.SetWorkers(1)

	s := mustParse(t, `
scenario consistency
set objective wire
init {
  qplace
  subdivide_full
  legalize
  sync
  spoil_wire protect tol=0
  spoil_wire
  legalize
  sync
}
`)
	if _, err := scenario.Run(c, s); err != nil {
		c.Close()
		t.Fatal(err)
	}
	if c.Rejects != 1 {
		c.Close()
		t.Fatalf("rejects = %d, want 1 (the protected spoil_wire)", c.Rejects)
	}
	if err := c.NL.Check(); err != nil {
		c.Close()
		t.Fatalf("netlist inconsistent: %v", err)
	}

	wire := c.St.Total()
	ws := c.Eng.WorstSlack()
	tns := c.Eng.TNS()
	rep := c.Cong.Analyze()
	c.Close()

	// Fresh analyzers over the same (edited) netlist recompute everything
	// from scratch; the incremental values above must match bit for bit.
	f := scenario.NewContext(d, 11)
	f.SetWorkers(1)
	defer f.Close()
	for f.Im.Level < f.Im.MaxLevel {
		f.Im.Subdivide() // match the grid geometry of the original run
	}
	f.SyncImage()
	if got := f.St.Total(); got != wire {
		t.Errorf("steiner total: incremental %.6f, fresh %.6f", wire, got)
	}
	if got := f.Eng.WorstSlack(); got != ws {
		t.Errorf("worst slack: incremental %.6f, fresh %.6f", ws, got)
	}
	if got := f.Eng.TNS(); got != tns {
		t.Errorf("TNS: incremental %.6f, fresh %.6f", tns, got)
	}
	frep := f.Cong.Analyze()
	if rep.HorizPeak != frep.HorizPeak || rep.HorizAvg != frep.HorizAvg ||
		rep.VertPeak != frep.VertPeak || rep.VertAvg != frep.VertAvg {
		t.Errorf("congestion: incremental %+v, fresh %+v", rep, frep)
	}
}
