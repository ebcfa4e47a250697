// Table1 regenerates the paper's Table 1: SPR vs TPS on the five designs
// Des1–Des5, reporting instance count, worst slack, % cycle-time
// improvement, and horizontal/vertical peak/average wires cut.
//
// Usage:
//
//	table1 -scale 0.1            # 10% of paper-sized designs (fast)
//	table1 -scale 1.0            # paper-sized cell counts (slow)
//	table1 -des 3 -scale 0.2     # a single design
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"tps"
)

func main() {
	scale := flag.Float64("scale", 0.1, "design size relative to the paper's")
	only := flag.Int("des", 0, "run a single design (1–5); 0 = all")
	verbose := flag.Bool("v", false, "flow progress on stderr")
	flag.Parse()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ckt\tFlow\ticells\tarea µm²\tslack ps\t% cycle impr.\tHoriz pk/avg\tVert pk/avg\tCPU s\titers")

	designs := []int{1, 2, 3, 4, 5}
	if *only != 0 {
		designs = []int{*only}
	}
	for _, i := range designs {
		p, err := tps.Table1Params(i, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		run := func(flow string) (tps.Metrics, error) {
			d := tps.NewDesign(p)
			defer d.Close()
			if *verbose {
				d.SetLog(os.Stderr)
			}
			if flow == "SPR" {
				return d.RunSPR(tps.DefaultSPROptions())
			}
			return d.RunTPS(tps.DefaultTPSOptions())
		}
		spr, err := run("SPR")
		if err != nil {
			fmt.Fprintf(os.Stderr, "table1: Des%d SPR: %v\n", i, err)
			os.Exit(1)
		}
		tpsM, err := run("TPS")
		if err != nil {
			fmt.Fprintf(os.Stderr, "table1: Des%d TPS: %v\n", i, err)
			os.Exit(1)
		}
		impr := tps.CycleImprovementPct(spr, tpsM)
		fmt.Fprintf(tw, "Des%d\tSPR\t%d\t%.0f\t%.0f\t\t%.0f/%.0f\t%.0f/%.0f\t%.1f\t%d\n",
			i, spr.ICells, spr.AreaUm2, spr.WorstSlack,
			spr.HorizPeak, spr.HorizAvg, spr.VertPeak, spr.VertAvg, spr.CPUSeconds, spr.Iterations)
		fmt.Fprintf(tw, "\tTPS\t%d\t%.0f\t%.0f\t%.1f\t%.0f/%.0f\t%.0f/%.0f\t%.1f\t%d\n",
			tpsM.ICells, tpsM.AreaUm2, tpsM.WorstSlack, impr,
			tpsM.HorizPeak, tpsM.HorizAvg, tpsM.VertPeak, tpsM.VertAvg, tpsM.CPUSeconds, tpsM.Iterations)
		tw.Flush()
	}
}
