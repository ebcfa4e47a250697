// Powernoise exercises the §7 extensions: after timing closure, the power
// analyzer's recovery transform shaves dynamic power from non-critical
// logic, and the noise analyzer finds and repairs crosstalk violations —
// both through the same propose → measure → accept loops as every other
// TPS transform, with the incremental timer holding the slack floor.
package main

import (
	"fmt"
	"os"

	"tps"
	"tps/internal/noise"
	"tps/internal/power"
)

func main() {
	d := tps.NewDesign(tps.DesignParams{
		Name:     "powernoise",
		NumGates: 1000,
		Levels:   10,
		Seed:     21,
	})
	defer d.Close()

	opt := tps.DefaultTPSOptions()
	opt.SkipRouting = true
	m, err := d.RunTPS(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("after TPS: slack %.0f ps, area %.0f µm²\n", m.WorstSlack, m.AreaUm2)

	// --- power ---
	pa := d.PowerAnalyzer()
	before := pa.Total()
	fmt.Printf("dynamic power: %.1f µW\n", before)
	n := power.RecoverPower(d.Netlist(), d.Timing(), pa, 0)
	pa.Recompute()
	fmt.Printf("power recovery: %d downsizes, %.1f µW (−%.1f%%), slack %.0f ps\n",
		n, pa.Total(), (1-pa.Total()/before)*100, d.WorstSlack())

	// --- noise ---
	na := d.NoiseAnalyzer()
	na.Threshold = 0.06 // aggressive sign-off for the demo
	viol := na.Violations()
	fmt.Printf("noise violations at Vnoise/Vdd > %.2f: %d\n", na.Threshold, len(viol))
	if len(viol) > 0 {
		worst := viol[0]
		fmt.Printf("  worst: net %s ratio %.3f (coupled %.1f fF)\n",
			worst.Name, na.NoiseRatio(worst), na.CoupledCap(worst))
		fixed := noise.Fix(na, d.Timing(), 0)
		na.Recompute()
		fmt.Printf("  repaired %d nets; %d violations remain; slack %.0f ps\n",
			fixed, len(na.Violations()), d.WorstSlack())
	}
}
