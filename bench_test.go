// Benchmark harness: one bench per paper table/figure plus the ablations
// DESIGN.md calls out (E1–E10). Benchmarks regenerate the experiment rows
// via b.ReportMetric, so `go test -bench . -benchmem` reproduces the
// numbers EXPERIMENTS.md records. Designs are scaled down (the BenchScale
// constant) so a full sweep stays laptop-sized; cmd/table1 and cmd/fig2
// run the same experiments at any scale.
package tps

import (
	"fmt"
	"os"
	"testing"

	"tps/internal/cell"
	"tps/internal/clockscan"
	"tps/internal/delay"
	"tps/internal/gen"
	"tps/internal/netlist"
	"tps/internal/partition"
	"tps/internal/place"
	"tps/internal/sizing"
	"tps/internal/steiner"
	"tps/internal/timing"
)

// BenchScale sizes the Table 1 designs for benchmarking (0.05 ≈ 600–1700
// placeable cells per design).
const BenchScale = 0.05

// ablationScale sizes the E6/E7 ablation designs. Below ~1500 cells the
// reflow and net-weight effects are noise-level and can flip sign with
// the partitioner's random stream; 0.15 (the EXPERIMENTS reference
// scale) is large enough to measure them and, since the FM gain-engine
// rebuild, still cheap.
const ablationScale = 0.15

// ---- E1: Table 1, one benchmark per design ----

func benchTable1(b *testing.B, des int) {
	for i := 0; i < b.N; i++ {
		p, err := Table1Params(des, BenchScale)
		if err != nil {
			b.Fatal(err)
		}
		dS := NewDesign(p)
		spr, err := dS.RunSPR(DefaultSPROptions())
		dS.Close()
		if err != nil {
			b.Fatal(err)
		}

		dT := NewDesign(p)
		tpsM, err := dT.RunTPS(DefaultTPSOptions())
		dT.Close()
		if err != nil {
			b.Fatal(err)
		}

		b.ReportMetric(spr.WorstSlack, "spr-slack-ps")
		b.ReportMetric(tpsM.WorstSlack, "tps-slack-ps")
		b.ReportMetric(CycleImprovementPct(spr, tpsM), "cycle-impr-%")
		b.ReportMetric(tpsM.AreaUm2/spr.AreaUm2, "area-ratio")
		b.ReportMetric(tpsM.HorizPeak, "tps-horiz-pk")
		b.ReportMetric(tpsM.VertPeak, "tps-vert-pk")
	}
}

func BenchmarkTable1Des1(b *testing.B) { benchTable1(b, 1) }
func BenchmarkTable1Des2(b *testing.B) { benchTable1(b, 2) }
func BenchmarkTable1Des3(b *testing.B) { benchTable1(b, 3) }
func BenchmarkTable1Des4(b *testing.B) { benchTable1(b, 4) }
func BenchmarkTable1Des5(b *testing.B) { benchTable1(b, 5) }

// ---- E2: Figure 2 wire-load histogram ----

func BenchmarkFig2WireHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := NewDesign(DesignParams{Name: "fig2", NumGates: 800, Levels: 10, Seed: 5})
		opt := DefaultTPSOptions()
		opt.SkipRouting = true
		if _, err := d.RunTPS(opt); err != nil {
			b.Fatal(err)
		}
		h := d.WireLoadHistograms([]float64{0, 0.10, 0.20}, 5, 80)
		b.ReportMetric(h[0].TailFraction(30)*100, "tail30-all-%")
		b.ReportMetric(h[1].TailFraction(30)*100, "tail30-drop10-%")
		b.ReportMetric(h[2].TailFraction(30)*100, "tail30-drop20-%")
		d.Close()
	}
}

// ---- E6: Reflow ablation ----

func BenchmarkAblationReflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(disable bool) Metrics {
			p, err := Table1Params(1, ablationScale)
			if err != nil {
				b.Fatal(err)
			}
			d := NewDesign(p)
			defer d.Close()
			opt := DefaultTPSOptions()
			opt.SkipRouting = true
			opt.DisableReflow = disable
			m, err := d.RunTPS(opt)
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
		with := run(false)
		without := run(true)
		b.ReportMetric(with.SteinerWireUm, "wl-with-reflow-um")
		b.ReportMetric(without.SteinerWireUm, "wl-no-reflow-um")
		b.ReportMetric(with.WorstSlack, "slack-with-ps")
		b.ReportMetric(without.WorstSlack, "slack-no-ps")
	}
}

// ---- E7: logical-effort net weight ablation ----
// Averaged over several seeds of Des1, where the effect is consistent;
// on Des4/Des5 it is noise-level at this scale (see EXPERIMENTS.md).

func BenchmarkAblationNetWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(des int, seed int64, useLE bool) Metrics {
			p, err := Table1Params(des, ablationScale)
			if err != nil {
				b.Fatal(err)
			}
			p.Seed = seed
			d := NewDesign(p)
			defer d.Close()
			opt := DefaultTPSOptions()
			opt.SkipRouting = true
			opt.UseLogicalEffort = useLE
			m, err := d.RunTPS(opt)
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
		var slackLE, slackPlain, wlLE, wlPlain float64
		cfgs := [][2]int64{{1, 11}, {1, 12}, {1, 13}, {1, 14}}
		for _, c := range cfgs {
			le := run(int(c[0]), c[1], true)
			pl := run(int(c[0]), c[1], false)
			slackLE += le.WorstSlack
			slackPlain += pl.WorstSlack
			wlLE += le.SteinerWireUm
			wlPlain += pl.SteinerWireUm
		}
		n := float64(len(cfgs))
		b.ReportMetric(slackLE/n, "slack-LE-ps")
		b.ReportMetric(slackPlain/n, "slack-plain-ps")
		b.ReportMetric(wlLE/n, "wl-LE-um")
		b.ReportMetric(wlPlain/n, "wl-plain-um")
	}
}

// ---- E8: virtual discretization ablation ----
// Controlled measurement of the §4.4 claim itself: the timing recompute
// cost of a virtual discretization pass vs an actual one on the same
// placed design (the whole-flow numbers are dominated by everything else).

func BenchmarkAblationVirtualDiscretization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		measure := func(virtual bool) int {
			d := gen.Generate(cell.Default(), gen.Params{NumGates: 1500, Levels: 10, Seed: 8})
			nl := d.NL
			j := 0
			nl.Gates(func(g *netlist.Gate) {
				if !g.Fixed {
					nl.MoveGate(g, float64(j%40)*20, float64(j/40%40)*20)
					j++
				}
			})
			st := steiner.NewCache(nl)
			calc := delay.NewCalculator(nl, st, delay.GainBased)
			eng := timing.New(nl, calc, d.Period)
			_ = eng.WorstSlack()
			before := eng.Recomputes
			if virtual {
				sizing.DiscretizeVirtual(nl, calc)
			} else {
				sizing.DiscretizeActual(nl, calc)
			}
			_ = eng.WorstSlack()
			return eng.Recomputes - before
		}
		b.ReportMetric(float64(measure(true)), "recomputes-virtual")
		b.ReportMetric(float64(measure(false)), "recomputes-actual")
	}
}

// ---- E9: clock/scan schedule ablation ----

func BenchmarkAblationClockSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(disable bool) (Metrics, float64, float64) {
			p, err := Table1Params(1, BenchScale)
			if err != nil {
				b.Fatal(err)
			}
			p.RegFraction = 0.25
			d := NewDesign(p)
			defer d.Close()
			opt := DefaultTPSOptions()
			opt.SkipRouting = true
			opt.DisableClockScanSchedule = disable
			m, err := d.RunTPS(opt)
			if err != nil {
				b.Fatal(err)
			}
			return m, d.ClockWireLength(), d.ScanWireLength()
		}
		mSched, ckSched, scSched := run(false)
		mTrad, ckTrad, scTrad := run(true)
		b.ReportMetric(ckSched, "clock-wl-scheduled-um")
		b.ReportMetric(ckTrad, "clock-wl-traditional-um")
		b.ReportMetric(scSched, "scan-wl-scheduled-um")
		b.ReportMetric(scTrad, "scan-wl-traditional-um")
		// The schedule's real payoff: late clock insertion disturbs the
		// finished data placement; the scheduled flow absorbs it in
		// reserved space, preserving data wirelength and slack.
		b.ReportMetric(mSched.WorstSlack, "slack-scheduled-ps")
		b.ReportMetric(mTrad.WorstSlack, "slack-traditional-ps")
		b.ReportMetric(mSched.SteinerWireUm, "wl-scheduled-um")
		b.ReportMetric(mTrad.SteinerWireUm, "wl-traditional-um")
	}
}

// ---- E10: flow runtime (TPS ≈ one synthesis+placement pass) ----

func BenchmarkFlowRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := Table1Params(5, BenchScale)
		if err != nil {
			b.Fatal(err)
		}
		dS := NewDesign(p)
		spr, err := dS.RunSPR(DefaultSPROptions())
		dS.Close()
		if err != nil {
			b.Fatal(err)
		}
		dT := NewDesign(p)
		tpsM, err := dT.RunTPS(DefaultTPSOptions())
		dT.Close()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(spr.CPUSeconds, "spr-cpu-s")
		b.ReportMetric(tpsM.CPUSeconds, "tps-cpu-s")
		b.ReportMetric(float64(spr.Iterations), "spr-iterations")
		b.ReportMetric(float64(tpsM.Iterations), "tps-iterations")
	}
}

// ---- component microbenchmarks ----

func BenchmarkSteinerBuild(b *testing.B) {
	for _, pins := range []int{3, 5, 8, 20} {
		b.Run(fmt.Sprintf("pins%d", pins), func(b *testing.B) {
			pts := make([]steiner.Point, pins)
			for i := range pts {
				pts[i] = steiner.Point{
					X: float64((i*2654435761 + 17) % 1000),
					Y: float64((i*40503 + 7) % 1000),
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steiner.Build(pts)
			}
		})
	}
}

func BenchmarkIncrementalTimingMove(b *testing.B) {
	d := gen.Generate(cell.Default(), gen.Params{NumGates: 2000, Levels: 10, Seed: 1})
	nl := d.NL
	i := 0
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			nl.MoveGate(g, float64(i%50)*20, float64(i/50%50)*20)
			i++
		}
	})
	st := steiner.NewCache(nl)
	calc := delay.NewCalculator(nl, st, delay.Actual)
	eng := timing.New(nl, calc, d.Period)
	sizing.DiscretizeActual(nl, calc)
	_ = eng.WorstSlack()
	var movable []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			movable = append(movable, g)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := movable[i%len(movable)]
		nl.MoveGate(g, g.X+1, g.Y)
		_ = eng.WorstSlack()
	}
}

func BenchmarkPartitionBisect(b *testing.B) {
	d := gen.Generate(cell.Default(), gen.Params{NumGates: 2000, Levels: 10, Seed: 2})
	h := &partition.Hypergraph{NumV: d.NL.GateCap()}
	d.NL.Nets(func(n *netlist.Net) {
		var vs []int32
		for _, p := range n.Pins() {
			vs = append(vs, int32(p.Gate.ID))
		}
		if len(vs) >= 2 {
			h.Nets = append(h.Nets, vs)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.Bipartition(h, partition.DefaultOptions(int64(i)))
	}
}

func BenchmarkClockOptimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := gen.Generate(cell.Default(), gen.Params{NumGates: 1000, Levels: 8, RegFraction: 0.3, Seed: 9})
		j := 0
		d.NL.Gates(func(g *netlist.Gate) {
			if !g.Fixed {
				d.NL.MoveGate(g, float64(j%40)*15, float64(j/40%40)*15)
				j++
			}
		})
		b.StartTimer()
		clockscan.OptimizeClock(d.NL, nil)
		clockscan.OptimizeScan(d.NL)
	}
}

// BenchmarkTPSEndToEnd times the full scenario on a mid-size design; the
// per-op time is the headline flow cost.
func BenchmarkTPSEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := NewDesign(DesignParams{Name: "bench", NumGates: 1000, Levels: 10, Seed: 3})
		m, err := d.RunTPS(DefaultTPSOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.WorstSlack, "slack-ps")
		d.Close()
	}
}

// ---- PR 9: FM gain engine ----

// BenchmarkFMPlacementScale measures the placement hot path the FM gain
// engine dominates: a full 0→100 min-cut placement (Partition to full
// refinement plus one Reflow) of netgen designs at 50k and 200k gates,
// single-worker, with the analyzer stack attached exactly as in the real
// flow. Gain-structure traffic (pushes, pops, stale fraction, gain
// updates) is reported per op via the partition.Stats counters. It is
// the only harness for 200k- and 1M-gate placement: perfbench's
// place_50k workload stops at 50k gates, and CI runs no size of it.
// FM_SCALE_1M=1 adds a million-gate row (minutes).
func BenchmarkFMPlacementScale(b *testing.B) {
	sizes := []int{50000, 200000}
	if os.Getenv("FM_SCALE_1M") != "" {
		sizes = append(sizes, 1000000)
	}
	for _, ng := range sizes {
		b.Run(fmt.Sprintf("gates=%d", ng), func(b *testing.B) {
			var stats partition.Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := NewDesign(DesignParams{Name: "fmscale", NumGates: ng, Levels: 20, Seed: 42})
				c := d.Context()
				c.SetWorkers(1)
				p := place.New(c.NL, c.Im, c.Seed)
				b.StartTimer()
				p.Partition(100)
				p.Reflow()
				b.StopTimer()
				stats = p.FMStats()
				d.Close()
			}
			b.ReportMetric(float64(stats.Pushes), "fm-pushes")
			b.ReportMetric(float64(stats.Pops), "fm-pops")
			b.ReportMetric(float64(stats.GainUpdates), "fm-updates")
			if stats.Pops > 0 {
				b.ReportMetric(float64(stats.StalePops)/float64(stats.Pops), "fm-stale-frac")
			}
		})
	}
}

// ---- metrics evaluation on a finished flow ----

func BenchmarkEvaluateOnly(b *testing.B) {
	d := NewDesign(DesignParams{NumGates: 500, Levels: 8, Seed: 4})
	defer d.Close()
	opt := DefaultTPSOptions()
	opt.SkipRouting = true
	if _, err := d.RunTPS(opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Context().Evaluate("bench")
	}
}
