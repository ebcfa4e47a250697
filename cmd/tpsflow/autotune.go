package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"

	"tps"
	"tps/internal/scenario"
	"tps/internal/serve"
)

// runAutotune executes a search locally: snapshot the design once, run
// the evolutionary loop, report each generation, print the search
// report, and adopt the winner.
func runAutotune(d *tps.Design, spec *tps.AutotuneSpec, traceFile, out string) error {
	fmt.Printf("AUTOTUNE search=%s objective=%s population=%d offspring=%d generations=%d\n",
		spec.Name, orDefault(spec.Objective, scenario.DefaultObjective), spec.Population, spec.Offspring, spec.Generations)
	var res *tps.AutotuneResult
	err := traced(traceFile, func(tr tps.Tracer) (err error) {
		spec.Trace = tr
		res, err = d.Autotune(context.Background(), *spec)
		return err
	})
	if res == nil {
		return err
	}
	for _, g := range res.Gens {
		restart := ""
		if g.Restart {
			restart = " restart"
		}
		fmt.Printf("  gen %-3d evaluated=%-3d best=%-6s obj=%g%s\n",
			g.Gen, g.Evaluated, orDefault(g.Best, "-"), g.BestObjective, restart)
	}
	printAutotune(os.Stdout, serve.AutotuneSummary(res))
	if err != nil || out == "" {
		return err
	}
	if err := saveDesign(out, tps.Adopt(res.BestDesign)); err != nil {
		return err
	}
	fmt.Printf("wrote %s (winner %s)\n", out, res.BestName)
	return nil
}

// printAutotune prints a search report, local or fetched from tpsd: if a
// variant won, the `AUTOTUNE winner=` line and the winning canonical
// script to out. The line is free of timings, the same determinism
// contract as the race report's. A missing objective (a failed flow)
// prints as -Inf, the value the library reports.
func printAutotune(out io.Writer, a *serve.AutotuneInfo) {
	if a.Winner == "" {
		return
	}
	fmt.Fprintf(out, "AUTOTUNE winner=%s obj=%g baseline=%g gens=%d evaluated=%d\n",
		a.Winner, orInf(a.WinnerObjective), orInf(a.BaseObjective), a.Generations, a.Evaluated)
	fmt.Fprint(out, a.WinnerScript)
}

func orInf(p *float64) float64 {
	if p == nil {
		return math.Inf(-1)
	}
	return *p
}
