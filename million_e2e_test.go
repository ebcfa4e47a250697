package tps

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestMillionCellFlow is the scale acceptance run for the ID-indexed
// netlist layout: a generated 1M-cell design must complete the TPS flow
// end-to-end. It takes over an hour on one core, so it only runs when
// TPS_SCALE_E2E=1 is set; the measured result is recorded in
// EXPERIMENTS.md ("million-cell netlist layout").
func TestMillionCellFlow(t *testing.T) {
	if os.Getenv("TPS_SCALE_E2E") == "" {
		t.Skip("set TPS_SCALE_E2E=1 to run the million-cell end-to-end flow")
	}
	t0 := time.Now()
	d := NewDesign(DesignParams{Name: "million", NumGates: 1000000, Levels: 24, Seed: 7})
	defer d.Close()
	d.SetWorkers(1)
	fmt.Printf("E2E gen done n=%d nets=%d after %v\n",
		d.Netlist().NumGates(), d.Netlist().NumNets(), time.Since(t0))

	opt := DefaultTPSOptions()
	opt.Step = 100 // one coarse status round: scale validation, not QoR tuning
	m, err := d.RunTPS(opt)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	fmt.Printf("E2E 1M TPS done in %v icells=%d slack=%.2f tns=%.2f wire=%.0f routed=%.0f ovf=%d recomputes=%d\n",
		time.Since(t0), m.ICells, m.WorstSlack, m.TNS, m.SteinerWireUm, m.RoutedWireUm, m.RouteOverflows, s.TimingRecomputes)
	if m.ICells <= 0 || m.CycleAchieved <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
}
