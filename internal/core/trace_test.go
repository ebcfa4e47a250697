package core

import (
	"io"
	"testing"

	"tps/internal/scenario"
)

// TestTracingLeavesResultsIdentical: observation never feeds a decision.
// The small TPS flow, run at Workers 1 and 2 with a JSONL tracer and
// with none, ends with identical Metrics (wall-clock CPUSeconds aside)
// and AnalyzerStats.
func TestTracingLeavesResultsIdentical(t *testing.T) {
	run := func(workers int, traced bool) outcome {
		c := scenario.NewContext(smallDesign(5), 5)
		defer c.Close()
		c.SetWorkers(workers)
		if traced {
			c.Trace = scenario.NewJSONLTracer(io.Discard)
		}
		opt := DefaultTPSOptions()
		opt.TransformBudget = 16
		m, err := RunTPS(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		m.CPUSeconds = 0
		return outcome{m: m, st: c.AnalyzerStats()}
	}
	ref := run(1, false)
	for _, w := range []int{1, 2} {
		for _, traced := range []bool{false, true} {
			if w == 1 && !traced {
				continue // the reference itself
			}
			got := run(w, traced)
			if got.m != ref.m {
				t.Errorf("workers=%d traced=%v: metrics %+v, want %+v", w, traced, got.m, ref.m)
			}
			if got.st != ref.st {
				t.Errorf("workers=%d traced=%v: analyzer stats %+v, want %+v", w, traced, got.st, ref.st)
			}
		}
	}
}
