package relocate

import "tps/internal/scenario"

func init() {
	scenario.Register(scenario.Transform{
		Name: "relieve", Doc: "relocate gates out of overfull bins (frac=0.25)",
		Window: "every step",
		Params: []scenario.ParamDomain{
			{Key: "frac", Kind: scenario.ParamFloat, Lo: 0.1, Hi: 0.5},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			stop := c.Track("synthesis")
			n := New(c.NL, c.Eng, c.Im).RelieveAll(a.Float("frac", 0.25))
			stop()
			return scenario.Report{Changed: n}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "decongest", Doc: "move low-slack gates away from congestion hot spots (moves=32)",
		Window: "any",
		Params: []scenario.ParamDomain{
			{Key: "moves", Kind: scenario.ParamInt, Lo: 8, Hi: 128},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			n := RelieveCongestion(c.Cong, New(c.NL, c.Eng, c.Im), a.Int("moves", 32), c.Interrupted)
			c.Logf("status %3d: congestion relocation moved %d", c.Status, n)
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
}
