package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"tps"
	"tps/internal/scenario"
)

// runPortfolio executes a race locally: fork the design per entrant,
// race, report every verdict, and adopt the winner. The `RACE winner=`
// line is deliberately free of timings so runs at different -workers
// widths can be diffed verbatim — that is the determinism contract.
func runPortfolio(makeDesign func() (*tps.Design, error), spec *tps.RaceSpec, traceFile, out string, verbose bool) error {
	d, err := makeDesign()
	if err != nil {
		return err
	}
	defer d.Close()
	cw, ch := d.Chip()
	fmt.Printf("design %s: %d gates, %d nets, die %.0f×%.0f µm, period %.0f ps\n",
		d.Netlist().Name, d.Netlist().NumGates(), d.Netlist().NumNets(), cw, ch, d.Period())
	fmt.Printf("RACE portfolio=%s objective=%s entrants=%d\n",
		spec.Name, orDefault(spec.Objective, scenario.DefaultObjective), len(spec.Entrants))

	if verbose {
		// Context.Logf emits whole lines in single Write calls, so the
		// shared stderr interleaves cleanly across entrants.
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

	res, raceErr := d.Race(context.Background(), *spec)
	if tracer != nil {
		// The race stream ends with race_verdict; append the tool-level
		// terminal flow_end so every tpsflow trace file closes the same way.
		end := tps.TraceEvent{Type: tps.EvFlowEnd}
		if raceErr != nil {
			end.Err = raceErr.Error()
		}
		tracer.Emit(end)
	}
	if res != nil {
		printVerdicts(res)
	}
	if raceErr != nil {
		return raceErr
	}

	w := &res.Verdicts[res.Winner]
	m := w.Metrics
	fmt.Printf("RACE winner=%s obj=%g slack=%.0fps cycle=%.0fps wire=%.0fµm\n",
		w.Name, w.Objective, m.WorstSlack, m.CycleAchieved, m.SteinerWireUm)

	if out != "" {
		if err := saveDesign(out, tps.Adopt(res.WinnerDesign)); err != nil {
			return err
		}
		fmt.Printf("wrote %s (winner %s)\n", out, w.Name)
	}
	return nil
}

// printVerdicts prints the per-entrant outcome table.
func printVerdicts(res *tps.RaceResult) {
	for i := range res.Verdicts {
		v := &res.Verdicts[i]
		var detail string
		switch {
		case v.Status == "finished":
			detail = fmt.Sprintf("obj=%g accepts=%d rejects=%d (%.1fs)",
				v.Objective, v.Accepts, v.Rejects, v.DurMs/1000)
		case v.Err != "":
			detail = v.Err
		}
		fmt.Printf("  %-12s seed=%-4d %-10s %s\n", v.Name, v.Seed, v.Status, strings.TrimSpace(detail))
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
