package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"tps"
	"tps/internal/scenario"
	"tps/internal/serve"
)

// runPortfolio executes a race locally: fork the design per entrant,
// race, print the race report, and adopt the winner.
func runPortfolio(d *tps.Design, spec *tps.RaceSpec, traceFile, out string) error {
	fmt.Printf("RACE portfolio=%s objective=%s entrants=%d\n",
		spec.Name, orDefault(spec.Objective, scenario.DefaultObjective), len(spec.Entrants))
	var res *tps.RaceResult
	err := traced(traceFile, func(tr tps.Tracer) (err error) {
		spec.Trace = tr
		res, err = d.Race(context.Background(), *spec)
		return err
	})
	if res == nil {
		return err
	}
	var m *scenario.Metrics
	if res.Winner >= 0 {
		m = res.Verdicts[res.Winner].Metrics
	}
	printRace(os.Stdout, os.Stdout, serve.RaceSummary(res), m)
	if err != nil || out == "" {
		return err
	}
	if err := saveDesign(out, tps.Adopt(res.WinnerDesign)); err != nil {
		return err
	}
	fmt.Printf("wrote %s (winner %s)\n", out, res.Verdicts[res.Winner].Name)
	return nil
}

// printRace prints a race report, local or fetched from tpsd: the
// per-entrant verdict table to table, then, if an entrant won, the
// `RACE winner=` line to out, where m is the winner's metrics. The
// winner line is free of timings, so runs at any -workers width, local
// or -submit, diff verbatim: that is the determinism contract.
func printRace(out, table io.Writer, r *serve.RaceInfo, m *scenario.Metrics) {
	for _, v := range r.Verdicts {
		detail := v.Error
		if v.Status == "finished" {
			detail = fmt.Sprintf("obj=%g accepts=%d rejects=%d (%.1fs)",
				v.Objective, v.Accepts, v.Rejects, v.DurMs/1000)
		}
		fmt.Fprintf(table, "  %-12s seed=%-4d %-10s %s\n", v.Name, v.Seed, v.Status, strings.TrimSpace(detail))
	}
	if r.WinnerIndex >= 0 && m != nil {
		fmt.Fprintf(out, "RACE winner=%s obj=%g slack=%.0fps cycle=%.0fps wire=%.0fµm\n",
			r.Winner, r.Verdicts[r.WinnerIndex].Objective, m.WorstSlack, m.CycleAchieved, m.SteinerWireUm)
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
