// Fig2 regenerates the paper's Figure 2: the wire-load histogram of
// Steiner-prediction error against final routed length, for the full net
// population and with the shortest 10% and 20% of nets removed.
//
// Usage:
//
//	fig2 -gates 3000 -seed 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tps"
)

func main() {
	gates := flag.Int("gates", 3000, "design size")
	levels := flag.Int("levels", 12, "logic depth")
	seed := flag.Int64("seed", 5, "generator seed")
	bucket := flag.Float64("bucket", 5, "histogram bucket width in % error")
	maxPct := flag.Float64("max", 80, "histogram top edge in % error")
	flag.Parse()

	d := tps.NewDesign(tps.DesignParams{
		Name: "fig2", NumGates: *gates, Levels: *levels, Seed: *seed,
	})
	defer d.Close()

	opt := tps.DefaultTPSOptions()
	opt.SkipRouting = true // the histogram routes below
	if _, err := d.RunTPS(opt); err != nil {
		fmt.Fprintln(os.Stderr, "fig2:", err)
		os.Exit(1)
	}

	drops := []float64{0, 0.10, 0.20}
	hists := d.WireLoadHistograms(drops, *bucket, *maxPct)

	fmt.Println("Figure 2 — wire load histogram: % prediction error of the")
	fmt.Println("Steiner estimate vs the routed net length (nets per bucket)")
	fmt.Printf("%-9s %9s %9s %9s\n", "error %", "all nets", "-10% shrt", "-20% shrt")
	for b := 0; b < len(hists[0].Counts); b++ {
		lo := float64(b) * hists[0].BucketPct
		label := fmt.Sprintf("%.0f–%.0f", lo, lo+hists[0].BucketPct)
		if b == len(hists[0].Counts)-1 {
			label = fmt.Sprintf("≥%.0f", lo)
		}
		fmt.Printf("%-9s %9d %9d %9d  %s\n", label,
			hists[0].Counts[b], hists[1].Counts[b], hists[2].Counts[b],
			strings.Repeat("▌", min(40, hists[0].Counts[b]/5)))
	}
	fmt.Println()
	for i, h := range hists {
		fmt.Printf("tail ≥30%% error, %2.0f%% shortest removed: %5.1f%%\n",
			drops[i]*100, h.TailFraction(30)*100)
	}
}
