package synth

import "tps/internal/scenario"

// forScenario returns the per-run optimizer actor. Margin defaults to the
// package's own; scenarios override through synth_margin (absolute ps) or
// synth_marginfrac (fraction of the clock period).
func forScenario(c *scenario.Context) *Optimizer {
	return scenario.Actor(c, "synth", func() *Optimizer {
		so := New(c.NL, c.Eng, c.Im)
		so.Stop = c.Interrupted
		if c.HasParam("synth_marginfrac") {
			so.Margin = c.ParamFloat("synth_marginfrac", 0) * c.Period
		} else if c.HasParam("synth_margin") {
			so.Margin = c.ParamFloat("synth_margin", so.Margin)
		}
		return so
	})
}

func init() {
	scenario.Register(scenario.Transform{
		Name: "clone", Doc: "duplicate critical high-fanout drivers (budget=<scenario budget>)",
		Window: "30..50",
		Params: []scenario.ParamDomain{
			{Key: "budget", Kind: scenario.ParamInt, Lo: 8, Hi: 256},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			stop := c.Track("synthesis")
			n := forScenario(c).CloneCritical(a.Int("budget", 0))
			stop()
			c.Logf("status %3d: clones %d", c.Status, n)
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
	scenario.Register(scenario.Transform{
		Name: "buffer", Doc: "buffer critical long or high-fanout nets (budget=<scenario budget>)",
		Window: "30..50",
		Params: []scenario.ParamDomain{
			{Key: "budget", Kind: scenario.ParamInt, Lo: 8, Hi: 256},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			stop := c.Track("synthesis")
			n := forScenario(c).BufferCritical(a.Int("budget", 0))
			stop()
			c.Logf("status %3d: buffers %d", c.Status, n)
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
	scenario.Register(scenario.Transform{
		Name: "pinswap", Doc: "swap commutative input pins on critical gates (budget=<scenario budget>)",
		Window: "50..",
		Params: []scenario.ParamDomain{
			{Key: "budget", Kind: scenario.ParamInt, Lo: 8, Hi: 256},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			stop := c.Track("synthesis")
			n := forScenario(c).PinSwap(a.Int("budget", 0))
			stop()
			c.Logf("status %3d: pin swaps %d", c.Status, n)
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
	scenario.Register(scenario.Transform{
		Name: "remap", Doc: "remap critical gates to faster logic structures (budget=<scenario budget>)",
		Window: "50..",
		Params: []scenario.ParamDomain{
			{Key: "budget", Kind: scenario.ParamInt, Lo: 8, Hi: 256},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			stop := c.Track("synthesis")
			n := forScenario(c).Remap(a.Int("budget", 0))
			stop()
			c.Logf("status %3d: remaps %d", c.Status, n)
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
	scenario.Register(scenario.Transform{
		Name: "electrical", Doc: "fix electrical violations (overloaded drivers)",
		Window: "50..",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			stop := c.Track("synthesis")
			n := forScenario(c).ElectricalCorrection(c.Calc)
			stop()
			c.Logf("status %3d: electrical correction fixed %d", c.Status, n)
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
}
