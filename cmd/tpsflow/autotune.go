package main

import (
	"context"
	"fmt"
	"os"

	"tps"
	"tps/internal/scenario"
)

// runAutotune executes a search locally: snapshot the design once, run
// the evolutionary loop, report each generation, and print the winning
// script. The `AUTOTUNE winner=` line is deliberately free of timings so
// runs at different -workers widths can be diffed verbatim — the same
// determinism contract the -portfolio output keeps.
func runAutotune(makeDesign func() (*tps.Design, error), spec *tps.AutotuneSpec, traceFile, out string, verbose bool) error {
	d, err := makeDesign()
	if err != nil {
		return err
	}
	defer d.Close()
	cw, ch := d.Chip()
	fmt.Printf("design %s: %d gates, %d nets, die %.0f×%.0f µm, period %.0f ps\n",
		d.Netlist().Name, d.Netlist().NumGates(), d.Netlist().NumNets(), cw, ch, d.Period())
	fmt.Printf("AUTOTUNE search=%s objective=%s population=%d offspring=%d generations=%d\n",
		spec.Name, orDefault(spec.Objective, scenario.DefaultObjective), spec.Population, spec.Offspring, spec.Generations)

	if verbose {
		spec.Log = os.Stderr
	}
	var tracer tps.Tracer
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer = tps.NewJSONLTracer(f)
		spec.Trace = tracer
	}

	res, searchErr := d.Autotune(context.Background(), *spec)
	if tracer != nil {
		// The search stream ends with autotune_verdict; append the
		// tool-level terminal flow_end so every tpsflow trace file closes
		// the same way.
		end := tps.TraceEvent{Type: tps.EvFlowEnd}
		if searchErr != nil {
			end.Err = searchErr.Error()
		}
		tracer.Emit(end)
	}
	if res != nil {
		for _, g := range res.Gens {
			restart := ""
			if g.Restart {
				restart = " restart"
			}
			fmt.Printf("  gen %-3d evaluated=%-3d best=%-6s obj=%g%s\n",
				g.Gen, g.Evaluated, orDefault(g.Best, "-"), g.BestObjective, restart)
		}
	}
	if searchErr != nil {
		return searchErr
	}

	fmt.Printf("AUTOTUNE winner=%s obj=%g baseline=%g gens=%d evaluated=%d\n",
		res.BestName, res.BestObjective, res.BaseObjective, res.Generations, res.Evaluated)
	fmt.Print(res.BestScript)

	if out != "" {
		if err := saveDesign(out, tps.Adopt(res.BestDesign)); err != nil {
			return err
		}
		fmt.Printf("wrote %s (winner %s)\n", out, res.BestName)
	}
	return nil
}
