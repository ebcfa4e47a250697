// Netgen generates a synthetic design and writes it as a .tpn netlist.
//
// Usage:
//
//	netgen -gates 5000 -levels 14 -seed 3 -o design.tpn
//	netgen -des 2 -scale 0.25 -o des2.tpn
package main

import (
	"flag"
	"fmt"
	"os"

	"tps"
)

func main() {
	gates := flag.Int("gates", 2000, "combinational gate count")
	levels := flag.Int("levels", 12, "logic depth")
	regs := flag.Float64("regs", 0.15, "register fraction")
	seed := flag.Int64("seed", 1, "generator seed")
	des := flag.Int("des", 0, "use Table 1 design Des<n> (1–5)")
	scale := flag.Float64("scale", 0.1, "scale for -des designs")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	var p tps.DesignParams
	if *des != 0 {
		var err error
		if p, err = tps.Table1Params(*des, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "netgen:", err)
			os.Exit(1)
		}
		p.Seed = *seed
	} else {
		p = tps.DesignParams{
			Name: "gen", NumGates: *gates, Levels: *levels,
			RegFraction: *regs, Seed: *seed,
		}
	}
	d := tps.NewDesign(p)
	defer d.Close()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := d.Save(w); err != nil {
		fmt.Fprintln(os.Stderr, "netgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "netgen: %d gates, %d nets, period %.0f ps\n",
		d.Netlist().NumGates(), d.Netlist().NumNets(), d.Period())
}
