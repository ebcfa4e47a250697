// Quickstart: generate a synthetic design and push it through the full TPS
// scenario — from bare netlist to a legally placed, routed, sized design —
// printing the closure metrics the paper's Table 1 tracks.
package main

import (
	"fmt"
	"os"

	"tps"
)

func main() {
	d := tps.NewDesign(tps.DesignParams{
		Name:     "quickstart",
		NumGates: 1200,
		Levels:   10,
		Seed:     42,
	})
	defer d.Close()

	w, h := d.Chip()
	fmt.Printf("design %q: %d gates, %d nets, die %.0f×%.0f µm, clock target %.0f ps\n",
		d.Netlist().Name, d.Netlist().NumGates(), d.Netlist().NumNets(), w, h, d.Period())

	d.SetLog(os.Stdout)
	m, err := d.RunTPS(tps.DefaultTPSOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Printf("worst slack      %8.0f ps\n", m.WorstSlack)
	fmt.Printf("achieved cycle   %8.0f ps\n", m.CycleAchieved)
	fmt.Printf("cell area        %8.0f µm²\n", m.AreaUm2)
	fmt.Printf("steiner wire     %8.0f µm\n", m.SteinerWireUm)
	fmt.Printf("routed wire      %8.0f µm (%d overflows)\n", m.RoutedWireUm, m.RouteOverflows)
	fmt.Printf("congestion       H %0.f/%0.f  V %0.f/%0.f (peak/avg wires cut)\n",
		m.HorizPeak, m.HorizAvg, m.VertPeak, m.VertAvg)
	fmt.Printf("flow runtime     %8.2f s in %d pass (no placement↔synthesis iteration)\n",
		m.CPUSeconds, m.Iterations)

	if err := d.CheckLegal(); err != nil {
		fmt.Fprintf(os.Stderr, "placement not legal: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("placement is row-legal ✓")
}
