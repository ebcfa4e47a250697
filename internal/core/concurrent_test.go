package core

import (
	"sync"
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/scenario"
)

// outcome is one flow's observable result: the Table-1 metrics plus the
// analyzer bookkeeping. CPUSeconds is wall time and is zeroed before
// comparison; everything else must be bit-identical across runs.
type outcome struct {
	m  scenario.Metrics
	st scenario.AnalyzerStats
}

// runFlow builds a fresh design from cfg and runs the named flow over
// it end to end. Every run constructs its own netlist and analyzer
// stack, so concurrent runs share nothing but the transform registry
// and the worker pool.
type flowCfg struct {
	flow  string // "TPS" or "SPR"
	des   int
	scale float64
	seed  int64
}

func runFlow(t *testing.T, cfg flowCfg) outcome {
	p, err := gen.Des(cfg.des, cfg.scale)
	if err != nil {
		t.Error(err) // runs off the test goroutine too
		return outcome{}
	}
	p.Seed = cfg.seed
	d := gen.Generate(cell.Default(), p)
	c := scenario.NewContext(d, cfg.seed)
	defer c.Close()
	c.SetWorkers(2)
	var m scenario.Metrics
	if cfg.flow == "TPS" {
		opt := DefaultTPSOptions()
		opt.TransformBudget = 16
		opt.SkipRouting = true
		m, err = RunTPS(c, opt)
	} else {
		opt := DefaultSPROptions()
		opt.MaxIterations = 2
		opt.TransformBudget = 16
		opt.SkipRouting = true
		m, err = RunSPR(c, opt)
	}
	if err != nil {
		t.Errorf("%s flow: %v", cfg.flow, err) // runs off the test goroutine too
	}
	m.CPUSeconds = 0
	return outcome{m: m, st: c.AnalyzerStats()}
}

// Two scenario flows in one process must not disturb each other: each
// concurrent run's metrics and analyzer counters must be bit-identical
// to the same flow run solo. Run under -race this also shakes out any
// unsynchronized shared state between flow instances (registry, pools,
// scratch buffers).
func TestConcurrentRunsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full flows in -short mode")
	}
	cfgs := []flowCfg{
		{flow: "TPS", des: 1, scale: 0.04, seed: 3},
		{flow: "SPR", des: 2, scale: 0.04, seed: 9},
	}

	solo := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		solo[i] = runFlow(t, cfg)
	}

	conc := make([]outcome, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg flowCfg) {
			defer wg.Done()
			conc[i] = runFlow(t, cfg)
		}(i, cfg)
	}
	wg.Wait()

	for i, cfg := range cfgs {
		if conc[i].m != solo[i].m {
			t.Errorf("%s metrics diverged under concurrency:\n solo %+v\n conc %+v",
				cfg.flow, solo[i].m, conc[i].m)
		}
		if conc[i].st != solo[i].st {
			t.Errorf("%s analyzer stats diverged under concurrency:\n solo %+v\n conc %+v",
				cfg.flow, solo[i].st, conc[i].st)
		}
	}
}
