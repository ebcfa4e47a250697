// Tpsflow runs the TPS or SPR flow on a design — either a generated
// synthetic one or a .tpn netlist — and prints the closure metrics. With
// -submit it instead ships the design and scenario to a running tpsd
// server and streams the job's trace.
//
// Usage:
//
//	tpsflow -flow tps -gates 2000 -levels 12 -seed 1 [-v]
//	tpsflow -flow spr -in design.tpn
//	tpsflow -flow tps -gates 2000 -out placed.tpn
//	tpsflow -flow tps -des 3 -scale 1.0 -workers 8 -cpuprofile cpu.pprof
//	tpsflow -scenario custom.tps -gates 2000 -trace run.jsonl
//	tpsflow -portfolio examples/portfolio/quad.race -gates 2000 -out best.tpn
//	tpsflow -autotune examples/autoflow/quick.at -gates 2000 -out tuned.tpn
//	tpsflow -submit http://localhost:8077 -scenario custom.tps -gates 2000
//	tpsflow -submit http://localhost:8077 -portfolio examples/portfolio/quad.race
//	tpsflow -submit http://localhost:8077 -autotune examples/autoflow/quick.at
//	tpsflow -list-transforms
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"tps"
	"tps/internal/scenario"
	"tps/internal/serve"
)

// main is the only place that may exit the process: every other path
// returns an error, so deferred cleanups (trace files, profiles, the
// design context) always run.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tpsflow:", err)
		os.Exit(1)
	}
}

func run() error {
	flow := flag.String("flow", "tps", "flow to run: tps or spr")
	in := flag.String("in", "", "input .tpn netlist (omit to generate)")
	out := flag.String("out", "", "write the final design as .tpn")
	gates := flag.Int("gates", 2000, "generated design: combinational gate count")
	levels := flag.Int("levels", 12, "generated design: logic depth")
	seed := flag.Int64("seed", 1, "generator / flow seed")
	des := flag.Int("des", 0, "use Table 1 design Des<n> (1–5) instead of -gates")
	scale := flag.Float64("scale", 0.1, "scale factor for -des designs")
	workers := flag.Int("workers", 0, "analyzer/transform fan-out width (0 = GOMAXPROCS; metrics are bit-identical at any width)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the flow to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-flow) to this file")
	scenarioFile := flag.String("scenario", "", "run this scenario script instead of the built-in flows")
	portfolioFile := flag.String("portfolio", "", "race a portfolio of scenario entrants from this spec file (see examples/portfolio)")
	autotuneFile := flag.String("autotune", "", "search the scenario space from this autotune spec file (see examples/autoflow)")
	traceFile := flag.String("trace", "", "write the engine's structured trace as JSONL to this file")
	listTransforms := flag.Bool("list-transforms", false, "list the registered transforms and exit")
	submit := flag.String("submit", "", "submit to a tpsd server at this base URL instead of running locally")
	verbose := flag.Bool("v", false, "print flow progress")
	flag.Parse()

	if *listTransforms {
		for _, tr := range tps.ListTransforms() {
			kind := ""
			if tr.Structural {
				kind = " [structural]"
			}
			fmt.Printf("%-18s %-14s %s%s\n", tr.Name, tr.Window, tr.Doc, kind)
			for _, d := range tr.Params {
				fmt.Printf("%-18s   tunable %s\n", "", d)
			}
		}
		return nil
	}

	makeDesign := func() (*tps.Design, error) {
		switch {
		case *in != "":
			f, err := os.Open(*in)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return tps.Load(f)
		case *des != 0:
			p, err := tps.Table1Params(*des, *scale)
			if err != nil {
				return nil, err
			}
			p.Seed = *seed
			return tps.NewDesign(p), nil
		default:
			return tps.NewDesign(tps.DesignParams{
				Name: "gen", NumGates: *gates, Levels: *levels, Seed: *seed,
			}), nil
		}
	}

	// Each mode is a job tpsd can run (-submit) and a local run on the
	// design; the plain flow's local run continues below.
	var (
		req   serve.SubmitRequest
		local func(d *tps.Design) error
	)
	switch {
	case *portfolioFile != "":
		spec, err := loadSpec(*portfolioFile, tps.ParseRaceSpec)
		if err != nil {
			return err
		}
		if *workers > 0 {
			spec.Workers = *workers
		}
		if *verbose {
			// Context.Logf emits whole lines in single Write calls, so the
			// shared stderr interleaves cleanly across entrants.
			spec.Log = os.Stderr
		}
		req = raceRequest(spec)
		local = func(d *tps.Design) error { return runPortfolio(d, spec, *traceFile, *out) }
	case *autotuneFile != "":
		spec, err := loadSpec(*autotuneFile, tps.ParseAutotuneSpec)
		if err != nil {
			return err
		}
		if *workers > 0 {
			spec.Workers = *workers
		}
		if spec.Seed == 0 {
			spec.Seed = *seed
		}
		if *verbose {
			spec.Log = os.Stderr
		}
		req = autotuneRequest(spec)
		local = func(d *tps.Design) error { return runAutotune(d, spec, *traceFile, *out) }
	case *submit != "":
		text, err := flowResolver("")(*flow, *scenarioFile)
		if err != nil {
			return err
		}
		req = serve.SubmitRequest{Scenario: text, Seed: *seed}
	}
	if *submit != "" {
		return submitJob(*submit, *workers, makeDesign, req)
	}

	d, err := makeDesign()
	if err != nil {
		return err
	}
	defer d.Close()
	w, h := d.Chip()
	fmt.Printf("design %s: %d gates, %d nets, die %.0f×%.0f µm, period %.0f ps\n",
		d.Netlist().Name, d.Netlist().NumGates(), d.Netlist().NumNets(), w, h, d.Period())
	if local != nil {
		return local(d)
	}
	if *verbose {
		d.SetLog(os.Stderr)
	}
	if *workers > 0 {
		d.SetWorkers(*workers)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var m tps.Metrics
	err = traced(*traceFile, func(tr tps.Tracer) (err error) {
		d.SetTrace(tr)
		switch {
		case *scenarioFile != "":
			m, err = runScenarioFile(d, *scenarioFile)
		case *flow == "tps":
			m, err = d.RunTPS(tps.DefaultTPSOptions())
		case *flow == "spr":
			m, err = d.RunSPR(tps.DefaultSPROptions())
		default:
			err = fmt.Errorf("unknown flow %q (want tps or spr)", *flow)
		}
		return err
	})
	if err != nil {
		return err
	}

	fmt.Printf("%-4s slack=%.0fps cycle=%.0fps area=%.0fµm² icells=%d\n",
		m.Flow, m.WorstSlack, m.CycleAchieved, m.AreaUm2, m.ICells)
	fmt.Printf("     wire: steiner=%.0fµm routed=%.0fµm overflows=%d\n",
		m.SteinerWireUm, m.RoutedWireUm, m.RouteOverflows)
	fmt.Printf("     congestion: Horiz %.0f/%.0f Vert %.0f/%.0f (pk/avg wires cut)\n",
		m.HorizPeak, m.HorizAvg, m.VertPeak, m.VertAvg)
	fmt.Printf("     cpu=%.1fs iterations=%d\n", m.CPUSeconds, m.Iterations)
	if ctx := d.Context(); ctx.Accepts+ctx.Rejects > 0 {
		fmt.Printf("     protected steps: %d accepted, %d rejected\n", ctx.Accepts, ctx.Rejects)
	}
	st := d.Stats()
	fmt.Printf("     analyzers: steiner rebuilds=%d, congestion passes=%d, timing recomputes=%d\n",
		st.SteinerRebuilds, st.CongestionFullPasses, st.TimingRecomputes)
	if st.FM.Pops > 0 {
		fmt.Printf("     fm: pushes=%d pops=%d stale=%.1f%% updates=%d compactions=%d\n",
			st.FM.Pushes, st.FM.Pops, 100*float64(st.FM.StalePops)/float64(st.FM.Pops),
			st.FM.GainUpdates, st.FM.Compactions)
	}
	printPhases(d.PhaseTimes())

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	if *out != "" {
		if err := saveDesign(*out, d); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// flowResolver resolves the flow references race entrants, autotune
// bases and -submit share: a script path, read relative to dir unless
// absolute, or a built-in flow (tps or spr) rendered as a script.
func flowResolver(dir string) func(flow, script string) (string, error) {
	return func(flow, script string) (string, error) {
		if script != "" {
			if !filepath.IsAbs(script) {
				script = filepath.Join(dir, script)
			}
			b, err := os.ReadFile(script)
			return string(b), err
		}
		switch flow {
		case "tps":
			return tps.TPSScript(tps.DefaultTPSOptions()), nil
		case "spr":
			return tps.SPRScript(tps.DefaultSPROptions()), nil
		}
		return "", fmt.Errorf("unknown flow %q (want tps or spr)", flow)
	}
}

// loadSpec reads and parses a -portfolio or -autotune spec file. Script
// paths in it resolve relative to the spec file's directory, so a spec
// can travel with its scripts.
func loadSpec[S any](path string, parse func(string, func(flow, script string) (string, error)) (*S, error)) (*S, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(string(b), flowResolver(filepath.Dir(path)))
}

// saveDesign writes d to path as .tpn — the -out file of every mode.
func saveDesign(path string, d *tps.Design) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced runs one local mode with the -trace file attached (run gets a
// nil tracer without -trace) and appends the tool-level terminal
// flow_end record, with run's error if any, so every tpsflow trace file
// closes the same way whatever the mode's own stream ends with. A trace
// that could not be written or closed fails the command too.
func traced(path string, run func(tr tps.Tracer) error) error {
	if path == "" {
		return run(nil)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := scenario.NewJSONLTracer(f)
	runErr := run(tr)
	end := tps.TraceEvent{Type: tps.EvFlowEnd}
	if runErr != nil {
		end.Err = runErr.Error()
	}
	tr.Emit(end)
	return errors.Join(runErr, tr.Err(), f.Close())
}

// printPhases prints per-transform wall clock, slowest first.
func printPhases(pt map[string]time.Duration) {
	if len(pt) == 0 {
		return
	}
	names := make([]string, 0, len(pt))
	for n := range pt {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return pt[names[i]] > pt[names[j]] })
	fmt.Printf("     transforms:")
	for _, n := range names {
		fmt.Printf(" %s=%.2fs", n, pt[n].Seconds())
	}
	fmt.Println()
}

// runScenarioFile loads a scenario script from disk and executes it —
// the -scenario code path.
func runScenarioFile(d *tps.Design, path string) (tps.Metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return tps.Metrics{}, err
	}
	s, err := tps.LoadScenario(f)
	f.Close()
	if err != nil {
		return tps.Metrics{}, err
	}
	return d.RunScenario(s)
}
