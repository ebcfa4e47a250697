package core

import (
	"os"
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/partition"
	"tps/internal/scenario"
)

// The scenario engine's contract: the built-in TPS and SPR scripts
// execute the exact operation sequence of the historical hand-scheduled
// loops (legacy_test.go), so metrics AND the incremental analyzers'
// work counters match bit for bit — at every worker count, since the
// evaluation layer is itself deterministic across fan-out widths.

// compareRuns executes the engine flow and the legacy flow on identical
// same-seed designs and compares everything except wall-clock.
func compareRuns(t *testing.T, name string, workers int,
	engine func(*scenario.Context) (scenario.Metrics, error), legacy func(*scenario.Context) scenario.Metrics) {
	t.Helper()

	dE := smallDesign(11)
	cE := scenario.NewContext(dE, 11)
	cE.SetWorkers(workers)
	gotM, err := engine(cE)
	if err != nil {
		t.Fatalf("%s workers=%d: engine flow: %v", name, workers, err)
	}
	gotS := cE.AnalyzerStats()
	cE.Close()

	dL := smallDesign(11)
	cL := scenario.NewContext(dL, 11)
	cL.SetWorkers(workers)
	wantM := legacy(cL)
	wantS := cL.AnalyzerStats()
	cL.Close()

	gotM.CPUSeconds, wantM.CPUSeconds = 0, 0
	if gotM != wantM {
		t.Errorf("%s workers=%d: metrics diverge\nengine: %+v\nlegacy: %+v", name, workers, gotM, wantM)
	}
	if gotS != wantS {
		t.Errorf("%s workers=%d: analyzer stats diverge\nengine: %+v\nlegacy: %+v", name, workers, gotS, wantS)
	}
}

func TestGoldenTPSEquivalence(t *testing.T) {
	opt := DefaultTPSOptions()
	opt.TransformBudget = 16
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(map[int]string{1: "workers=1", 8: "workers=8"}[workers], func(t *testing.T) {
			compareRuns(t, "TPS", workers,
				func(c *scenario.Context) (scenario.Metrics, error) { return RunTPS(c, opt) },
				func(c *scenario.Context) scenario.Metrics { return runTPSLegacy(c, opt) })
		})
	}
}

// The ablation flags exercise every branch of the script generator:
// no reflow, no virtual discretization, absolute weighting without
// logical effort, traditional clock/scan, no routing.
func TestGoldenTPSEquivalenceAblations(t *testing.T) {
	opt := DefaultTPSOptions()
	opt.TransformBudget = 8
	opt.DisableReflow = true
	opt.VirtualDiscretization = false
	opt.UseLogicalEffort = false
	opt.WeightMode = 0 // netweight.Absolute
	opt.DisableClockScanSchedule = true
	opt.SkipRouting = true
	opt.Step = 10
	compareRuns(t, "TPS-ablated", 1,
		func(c *scenario.Context) (scenario.Metrics, error) { return RunTPS(c, opt) },
		func(c *scenario.Context) scenario.Metrics { return runTPSLegacy(c, opt) })
}

func TestGoldenSPREquivalence(t *testing.T) {
	opt := DefaultSPROptions()
	opt.TransformBudget = 16
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(map[int]string{1: "workers=1", 8: "workers=8"}[workers], func(t *testing.T) {
			compareRuns(t, "SPR", workers,
				func(c *scenario.Context) (scenario.Metrics, error) { return RunSPR(c, opt) },
				func(c *scenario.Context) scenario.Metrics { return runSPRLegacy(c, opt) })
		})
	}
}

// congestionFirstGolden runs examples/scenario/congestion_first.tps on
// the design of CI's sample-trace step (-gates 800 -levels 8 -seed 7),
// the one shipped flow that runs decongest and judges protected steps by
// total Steiner wire.
func congestionFirstGolden(t *testing.T, workers int) (scenario.Metrics, scenario.AnalyzerStats, [2]int) {
	t.Helper()
	text, err := os.ReadFile("../../examples/scenario/congestion_first.tps")
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	d := gen.Generate(cell.Default(), gen.Params{Name: "gen", NumGates: 800, Levels: 8, Seed: 7})
	c := scenario.NewContext(d, 7)
	defer c.Close()
	c.SetWorkers(workers)
	m, err := scenario.Run(c, s)
	if err != nil {
		t.Fatal(err)
	}
	m.CPUSeconds = 0
	return m, c.AnalyzerStats(), [2]int{c.Accepts, c.Rejects}
}

// TestGoldenCongestionFirst pins congestion_first.tps to constants
// captured at commit d803b86, at every worker count. It is the only
// golden over decongest, relieve and wire-judged protected steps. The
// congestion pass count is the captured full plus incremental passes,
// since every pass is now a full one.
func TestGoldenCongestionFirst(t *testing.T) {
	wantM := scenario.Metrics{Flow: "cong1", ICells: 924, AreaUm2: 30950.40000000029,
		WorstSlack: -257.9385513041807, TNS: -20209.59960408305, CycleAchieved: 852.6265513041807,
		HorizPeak: 361, HorizAvg: 150.8, VertPeak: 295, VertAvg: 181.8,
		SteinerWireUm: 80219.18134669636, RoutedWireUm: 108276.96702279025, RouteOverflows: 184,
		Iterations: 1}
	wantS := scenario.AnalyzerStats{SteinerRebuilds: 7243,
		CongestionFullPasses: 41, TimingRecomputes: 802839,
		FM: partition.Stats{Pushes: 205921, Pops: 120998, StalePops: 32426, GainUpdates: 168276, Compactions: 585}}
	wantAR := [2]int{2, 7}
	for _, workers := range []int{1, 2, 8} {
		m, s, ar := congestionFirstGolden(t, workers)
		if m != wantM {
			t.Errorf("workers=%d: metrics\ngot  %+v\nwant %+v", workers, m, wantM)
		}
		if s != wantS {
			t.Errorf("workers=%d: analyzer stats\ngot  %+v\nwant %+v", workers, s, wantS)
		}
		if ar != wantAR {
			t.Errorf("workers=%d: protected steps accepted/rejected = %v, want %v", workers, ar, wantAR)
		}
	}
}
