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
// partitioner, did not move, which is itself part of the check. Both
// goldens were recaptured once more when synthesis stopped calling
// circuit relocation to make room for the cells it inserts (EXPERIMENTS
// E11): a new cell now stays where its transform puts it and no other
// cell moves, so every later step sees a different placement. When
// every congestion pass became a full one, congFull took the captured
// full plus incremental passes and congIncr went to 0. Every metric —
// including the analyzer effort counters — must stay bit-identical at
// every worker count.
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
			icells: 909,
			area:   44515.200000000055,
			slack:  -197.5445005199557,
			tns:    -18669.36897700649,
			cycle:  1172.0085005199555,
			hPeak:  226, hAvg: 120.93333333333334,
			vPeak: 420, vAvg: 292.8,
			wire:            101655.36390033801,
			routed:          158921.84618360383,
			overflows:       290,
			steinerRebuilds: 31490,
			congFull:        21, congIncr: 0,
			timingRecomputes: 7562359,
		},
		"SPR": {
			icells: 946,
			area:   41832.00000000001,
			slack:  -227.52334934737075,
			tns:    -21559.680705441093,
			cycle:  1201.9873493473706,
			hPeak:  327, hAvg: 189.93333333333334,
			vPeak: 272, vAvg: 201.93333333333334,
			wire:            93316.59559060304,
			routed:          116303.45617083868,
			overflows:       191,
			steinerRebuilds: 7169,
			congFull:        1, congIncr: 0,
			timingRecomputes: 2150513,
		},
	}
	p, err := Table1Params(1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, flow := range []string{"TPS", "SPR"} {
		want := goldens[flow]
		for _, w := range []int{1, 2, 8} {
			d := NewDesign(p)
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
			if s.SteinerDirty != 0 {
				fail("SteinerDirty", s.SteinerDirty, 0)
			}
		}
	}
}
