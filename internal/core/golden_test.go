package core

import (
	"testing"

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
