package core

// This file is the pre-scenario-engine flow code, kept verbatim (modulo
// the exported Logf/Track renames) as the reference implementation for
// the golden equivalence tests: RunTPS/RunSPR through the scenario
// engine must produce bit-identical Metrics and AnalyzerStats to these
// hand-scheduled loops at every worker count.

import (
	"time"

	"tps/internal/clockscan"
	"tps/internal/delay"
	"tps/internal/migrate"
	"tps/internal/netlist"
	"tps/internal/netweight"
	"tps/internal/place"
	"tps/internal/quadratic"
	"tps/internal/relocate"
	"tps/internal/route"
	"tps/internal/scenario"
	"tps/internal/sizing"
	"tps/internal/synth"
)

func runTPSLegacy(c *scenario.Context, opt TPSOptions) scenario.Metrics {
	start := time.Now()
	if opt.Step <= 0 {
		opt.Step = 5
	}
	if opt.DiscretizeAt <= 0 {
		opt.DiscretizeAt = 30
	}

	placer := place.New(c.NL, c.Im, c.Seed)
	placer.Workers = c.Workers
	sched := clockscan.NewScheduler(c.NL, c.Im, c.St)
	weighter := netweight.New(c.NL, c.Eng, opt.WeightMode)
	weighter.UseLogicalEffort = opt.UseLogicalEffort
	weighter.Margin = 0.06 * c.Period
	mig := migrate.New(c.NL, c.Eng, c.Im)
	mig.Margin = 0.08 * c.Period
	so := synth.New(c.NL, c.Eng, c.Im)
	so.Margin = 0.08 * c.Period

	// Initialization (Fig. 5): gain-based timing, uniform gains, clock
	// tree and scan chain parked by the §4.5 schedule at status 10.
	c.Eng.SetMode(delay.GainBased)
	sizing.AssignGains(c.NL, 4)

	discretized := false
	status := 0
	budget := opt.TransformBudget
	electricalDone := false

	crossed := func(prev, cur, lo, hi int) bool {
		return prev < hi && cur > lo
	}

	for status < 100 {
		prev := status
		status += opt.Step
		if status > 100 {
			status = 100
		}
		if placer.Status() < status {
			stop := c.Track("partition")
			placer.Partition(status)
			stop()
			if !opt.DisableReflow {
				stop = c.Track("reflow")
				placer.Reflow()
				stop()
			}
			place.PublishFMStats(c, placer)
		}
		bd := c.Im.BinW()
		if c.Im.BinH() > bd {
			bd = c.Im.BinH()
		}
		if bd != c.Calc.BinDim {
			c.Calc.SetBinDim(bd)
			c.Eng.InvalidateAll()
		}
		if !opt.DisableClockScanSchedule {
			sched.OnStatus(status)
		}
		weighter.Apply()

		stopSynth := c.Track("synthesis")
		if !discretized {
			if status >= opt.DiscretizeAt || !opt.VirtualDiscretization {
				n := sizing.DiscretizeActual(c.NL, c.Calc)
				c.Eng.SetMode(delay.Actual)
				discretized = true
				c.Logf("status %3d: actual discretization of %d gates, timing → actual", status, n)
			} else {
				sizing.DiscretizeVirtual(c.NL, c.Calc)
			}
		}

		if crossed(prev, status, 20, 30) {
			n := sizing.SizeForArea(c.NL, c.Eng, 50, nil)
			c.Logf("status %3d: area recovery resized %d", status, n)
		}
		if status > 30 && discretized {
			n := sizing.SizeForSpeed(c.NL, c.Eng, c.Im, 60, budget, nil)
			c.Logf("status %3d: speed sizing accepted %d", status, n)
		}
		if crossed(prev, status, 30, 50) && discretized {
			nm := mig.Run()
			ncl := so.CloneCritical(budget)
			nbf := so.BufferCritical(budget)
			c.Logf("status %3d: migration %d, clones %d, buffers %d", status, nm, ncl, nbf)
		}
		if status > 50 {
			np := so.PinSwap(budget)
			nr := so.Remap(budget)
			c.Logf("status %3d: pin swaps %d, remaps %d", status, np, nr)
			if !electricalDone && discretized {
				ne := so.ElectricalCorrection(c.Calc)
				electricalDone = true
				c.Logf("status %3d: electrical correction fixed %d", status, ne)
			}
		}
		if status > 80 {
			n := sizing.SizeForArea(c.NL, c.Eng, 80, nil)
			c.Logf("status %3d: late area recovery resized %d", status, n)
		}
		relocate.New(c.NL, c.Eng, c.Im).RelieveAll(0.25)
		stopSynth()
		placer.SyncImage()

		dirtyNets := c.Cong.DirtyNets()
		stopCong := c.Track("congestion")
		crep := c.Cong.Analyze()
		stopCong()
		c.Logf("status %3d: congestion Horiz %.0f/%.0f Vert %.0f/%.0f (%d dirty nets)",
			status, crep.HorizPeak, crep.HorizAvg, crep.VertPeak, crep.VertAvg, dirtyNets)
	}

	placer.SpreadWithinBins()
	c.Calc.SetBinDim(0)
	c.Eng.InvalidateAll()
	if !discretized {
		sizing.DiscretizeActual(c.NL, c.Calc)
		c.Eng.SetMode(delay.Actual)
	}
	dopt := place.DefaultDetailedOptions()
	dopt.Workers = c.Workers
	stop := c.Track("legalize")
	place.Legalize(c.NL, c.ChipW, c.ChipH)
	stop()
	stop = c.Track("detailed")
	place.DetailedPlace(c.NL, c.ChipW, c.ChipH, dopt)
	stop()
	syncImageLegacy(c)

	if opt.DisableClockScanSchedule {
		clockscan.OptimizeClock(c.NL, c.Im)
		clockscan.OptimizeScan(c.NL)
		place.Legalize(c.NL, c.ChipW, c.ChipH)
		syncImageLegacy(c)
	}

	{
		stop = c.Track("synthesis")
		ns := sizing.SizeForSpeed(c.NL, c.Eng, c.Im, 0.08*c.Period, 2*budget, nil)
		nb := so.BufferCritical(budget)
		ncl := so.CloneCritical(budget)
		np := so.PinSwap(budget)
		stop()
		c.Logf("final pass: sizes %d, buffers %d, clones %d, pin swaps %d", ns, nb, ncl, np)
		stop = c.Track("legalize")
		place.Legalize(c.NL, c.ChipW, c.ChipH)
		stop()
		stop = c.Track("detailed")
		place.DetailedPlace(c.NL, c.ChipW, c.ChipH, dopt)
		stop()
		sizing.InFootprintResize(c.NL, c.Eng, 0.08*c.Period, nil)
		so.PinSwap(budget)
	}

	m := c.Evaluate("TPS")
	if !opt.SkipRouting {
		stop = c.Track("route")
		res := route.RouteAllN(c.NL, c.St, c.Im, c.Workers)
		stop()
		m.RoutedWireUm = res.TotalLen
		m.RouteOverflows = res.Overflows
		n := sizing.InFootprintResize(c.NL, c.Eng, 60, nil)
		c.Logf("post-route in-footprint resizes: %d", n)
		m.WorstSlack = c.Eng.WorstSlack()
		m.TNS = c.Eng.TNS()
		m.CycleAchieved = c.Period - m.WorstSlack
	}
	m.CPUSeconds = time.Since(start).Seconds()
	m.Iterations = 1
	return m
}

func runSPRLegacy(c *scenario.Context, opt SPROptions) scenario.Metrics {
	start := time.Now()
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 4
	}
	budget := opt.TransformBudget

	so := synth.New(c.NL, c.Eng, c.Im)
	weighter := netweight.New(c.NL, c.Eng, netweight.Absolute)
	weighter.UseLogicalEffort = false

	// --- Stage 1: stand-alone synthesis on wire-load models. ---
	c.Eng.SetMode(delay.WireLoad)
	sizing.AssignGains(c.NL, 4)
	sizing.DiscretizeActual(c.NL, c.Calc)
	sizing.SizeForSpeed(c.NL, c.Eng, c.Im, 60, budget, nil)
	so.BufferCritical(budget)
	so.CloneCritical(budget)
	c.Logf("SPR synthesis done (WLM): slack %.0f", c.Eng.WorstSlack())

	// --- Stage 2: stand-alone placement. ---
	weighter.Margin = 100
	weighter.Apply()
	savedW := map[int]float64{}
	c.NL.Nets(func(n *netlist.Net) {
		if n.Kind != netlist.Signal {
			savedW[n.ID] = n.Weight
			c.NL.SetNetWeight(n, 0)
		}
	})
	qopt := quadratic.DefaultOptions()
	qopt.Seed = c.Seed
	qopt.Workers = c.Workers
	stop := c.Track("quadratic")
	quadratic.Place(c.NL, c.ChipW, c.ChipH, qopt)
	stop()
	for c.Im.Level < c.Im.MaxLevel {
		c.Im.Subdivide()
	}
	place.Legalize(c.NL, c.ChipW, c.ChipH)
	c.NL.Nets(func(n *netlist.Net) {
		if w, ok := savedW[n.ID]; ok {
			c.NL.SetNetWeight(n, w)
		}
	})
	clockscan.OptimizeClock(c.NL, c.Im)
	clockscan.OptimizeScan(c.NL)
	place.Legalize(c.NL, c.ChipW, c.ChipH)
	syncImageLegacy(c)

	// --- Stage 3: measure with real wires; iterate resynthesis. ---
	c.Eng.SetMode(delay.Actual)
	iters := 1
	prev := c.Eng.WorstSlack()
	c.Logf("SPR post-place slack: %.0f", prev)
	for it := 0; it < opt.MaxIterations; it++ {
		ns := sizing.SizeForSpeed(c.NL, c.Eng, c.Im, 60, budget, nil)
		nb := so.BufferCritical(budget)
		ncl := so.CloneCritical(budget)
		place.Legalize(c.NL, c.ChipW, c.ChipH)
		syncImageLegacy(c)
		iters++
		ws := c.Eng.WorstSlack()
		c.Logf("SPR resynth iter %d: sizes %d buffers %d clones %d slack %.0f", it+1, ns, nb, ncl, ws)
		if ws <= prev+1 {
			prev = ws
			break
		}
		prev = ws
	}
	dopt := place.DefaultDetailedOptions()
	dopt.Workers = c.Workers
	stop = c.Track("detailed")
	place.DetailedPlace(c.NL, c.ChipW, c.ChipH, dopt)
	stop()

	m := c.Evaluate("SPR")
	if !opt.SkipRouting {
		res := route.RouteAllN(c.NL, c.St, c.Im, c.Workers)
		m.RoutedWireUm = res.TotalLen
		m.RouteOverflows = res.Overflows
		sizing.InFootprintResize(c.NL, c.Eng, 60, nil)
		m.WorstSlack = c.Eng.WorstSlack()
		m.TNS = c.Eng.TNS()
		m.CycleAchieved = c.Period - m.WorstSlack
	}
	m.CPUSeconds = time.Since(start).Seconds()
	m.Iterations = iters
	return m
}

func syncImageLegacy(c *scenario.Context) {
	t := c.NL.Lib.Tech
	c.Im.ClearUsage()
	c.NL.Gates(func(g *netlist.Gate) {
		if !g.IsPad() {
			c.Im.Deposit(g.X, g.Y, g.Area(t))
		}
	})
}
