package tps

import (
	"testing"
)

// TestMetricsBitIdenticalAfterLayoutRefactor locks the full TPS and SPR
// flows to goldens. The originals were captured before the ID-indexed
// netlist refactor (slab hot state, arena pins, CSR membership,
// incremental timing levelization, observer-maintained relocation index)
// and survived it untouched: that refactor was layout and scheduling,
// never arithmetic. The TPS golden was recaptured once, when the FM
// engine's restart/matching RNG moved from math/rand's Go1 source to
// math/rand/v2's PCG — an intentional stream change that yields different
// (equally valid) cuts; the SPR golden, whose flow never enters the FM
// partitioner, did not move, which is itself part of the check. Every
// metric — including the analyzer effort counters — must stay
// bit-identical at every worker count.
func TestMetricsBitIdenticalAfterLayoutRefactor(t *testing.T) {
	type golden struct {
		icells                   int
		area, slack, tns         float64
		cycle                    float64
		hPeak, hAvg, vPeak, vAvg float64
		wire, routed             float64
		overflows                int
		steinerRebuilds          int
		congFull, congIncr       int
		timingRecomputes         int
	}
	goldens := map[string]golden{
		"TPS": {
			icells: 913,
			area:   45052.80000000011,
			slack:  -168.80150082364628,
			tns:    -12967.591165886173,
			cycle:  1143.265500823646,
			hPeak:  224, hAvg: 123.33333333333333,
			vPeak: 422, vAvg: 293.73333333333335,
			wire:            103136.03547139814,
			routed:          158676.6821508809,
			overflows:       282,
			steinerRebuilds: 43588,
			congFull:        17, congIncr: 4,
			timingRecomputes: 9248648,
		},
		"SPR": {
			icells: 948,
			area:   41855.999999999985,
			slack:  -239.86428507520998,
			tns:    -22646.983258934324,
			cycle:  1214.3282850752098,
			hPeak:  330, hAvg: 194.26666666666668,
			vPeak: 273, vAvg: 201.40000000000001,
			wire:            94062.602920448247,
			routed:          116531.4980148316,
			overflows:       195,
			steinerRebuilds: 8296,
			congFull:        1, congIncr: 0,
			timingRecomputes: 2246374,
		},
	}
	for _, flow := range []string{"TPS", "SPR"} {
		want := goldens[flow]
		for _, w := range []int{1, 2, 8} {
			d := NewDesign(Table1Params(1, 0.05))
			d.SetWorkers(w)
			var m Metrics
			var err error
			if flow == "TPS" {
				m, err = d.RunTPS(DefaultTPSOptions())
			} else {
				m, err = d.RunSPR(DefaultSPROptions())
			}
			if err != nil {
				t.Fatal(err)
			}
			s := d.Stats()
			d.Close()

			fail := func(name string, got, exp any) {
				t.Errorf("%s workers=%d: %s = %v, golden %v", flow, w, name, got, exp)
			}
			if m.ICells != want.icells {
				fail("ICells", m.ICells, want.icells)
			}
			if m.AreaUm2 != want.area {
				fail("AreaUm2", m.AreaUm2, want.area)
			}
			if m.WorstSlack != want.slack {
				fail("WorstSlack", m.WorstSlack, want.slack)
			}
			if m.TNS != want.tns {
				fail("TNS", m.TNS, want.tns)
			}
			if m.CycleAchieved != want.cycle {
				fail("CycleAchieved", m.CycleAchieved, want.cycle)
			}
			if m.HorizPeak != want.hPeak || m.HorizAvg != want.hAvg {
				fail("Horiz", []float64{m.HorizPeak, m.HorizAvg}, []float64{want.hPeak, want.hAvg})
			}
			if m.VertPeak != want.vPeak || m.VertAvg != want.vAvg {
				fail("Vert", []float64{m.VertPeak, m.VertAvg}, []float64{want.vPeak, want.vAvg})
			}
			if m.SteinerWireUm != want.wire {
				fail("SteinerWireUm", m.SteinerWireUm, want.wire)
			}
			if m.RoutedWireUm != want.routed {
				fail("RoutedWireUm", m.RoutedWireUm, want.routed)
			}
			if m.RouteOverflows != want.overflows {
				fail("RouteOverflows", m.RouteOverflows, want.overflows)
			}
			if s.SteinerRebuilds != want.steinerRebuilds {
				fail("SteinerRebuilds", s.SteinerRebuilds, want.steinerRebuilds)
			}
			if s.CongestionFullPasses != want.congFull || s.CongestionIncrementalPasses != want.congIncr {
				fail("CongestionPasses", []int{s.CongestionFullPasses, s.CongestionIncrementalPasses},
					[]int{want.congFull, want.congIncr})
			}
			if s.TimingRecomputes != want.timingRecomputes {
				fail("TimingRecomputes", s.TimingRecomputes, want.timingRecomputes)
			}
			if s.SteinerDirty != 0 || s.CongestionDirty != 0 {
				fail("DirtySets", []int{s.SteinerDirty, s.CongestionDirty}, []int{0, 0})
			}
		}
	}
}
