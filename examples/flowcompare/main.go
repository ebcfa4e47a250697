// Flowcompare runs the paper's central experiment on one design: the
// traditional synthesize–place–resynthesize loop (SPR) against the single
// converging TPS scenario, printing a Table 1-style row. The same seed
// regenerates the identical netlist for both flows.
package main

import (
	"flag"
	"fmt"
	"os"

	"tps"
)

func main() {
	gates := flag.Int("gates", 1500, "approximate combinational gate count")
	levels := flag.Int("levels", 12, "pipeline logic depth")
	seed := flag.Int64("seed", 7, "generator seed")
	flag.Parse()

	params := tps.DesignParams{
		Name:     "compare",
		NumGates: *gates,
		Levels:   *levels,
		Seed:     *seed,
	}

	fmt.Printf("=== SPR: separate synthesis and placement, iterated ===\n")
	dS := tps.NewDesign(params)
	spr, err := dS.RunSPR(tps.DefaultSPROptions())
	dS.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printRow("SPR", spr)

	fmt.Printf("\n=== TPS: one converging transformational flow ===\n")
	dT := tps.NewDesign(params)
	tpsM, err := dT.RunTPS(tps.DefaultTPSOptions())
	dT.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printRow("TPS", tpsM)

	fmt.Printf("\ncycle time improvement: %.1f%%  (paper reports 6.5–11.5%% on Des1–Des5)\n",
		tps.CycleImprovementPct(spr, tpsM))
	fmt.Printf("TPS ran %d outer pass vs SPR's %d synthesis↔placement iterations\n",
		tpsM.Iterations, spr.Iterations)
}

func printRow(name string, m tps.Metrics) {
	fmt.Printf("%-4s icells=%d area=%.0fµm² slack=%.0fps cycle=%.0fps "+
		"Horiz %.0f/%.0f Vert %.0f/%.0f wire=%.0fµm cpu=%.1fs\n",
		name, m.ICells, m.AreaUm2, m.WorstSlack, m.CycleAchieved,
		m.HorizPeak, m.HorizAvg, m.VertPeak, m.VertAvg, m.SteinerWireUm, m.CPUSeconds)
}
