package main

import (
	"bytes"
	"math/rand"
	"strings"
	"time"

	"tps"
	"tps/internal/cell"
	"tps/internal/netio"
	"tps/internal/netlist"
	"tps/internal/scenario"
)

// probeReps is how many times each probe repeats; probes report medians.
const probeReps = 3

// analyzerProbe times the three incremental analyzers on c's design:
// a full pass of each after invalidating everything, then an
// incremental pass after moving 1% of the movable gates (chosen from
// the workload seed) by 1 µm. Steiner runs first so timing and
// congestion find the trees rebuilt. It edits the design, so it runs
// after every output check.
func analyzerProbe(c *scenario.Context, seed int64, v values) {
	var movable []*netlist.Gate
	c.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed && !g.IsPad() {
			movable = append(movable, g)
		}
	})
	if len(movable) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	timed := func(f func()) float64 {
		t0 := time.Now()
		f()
		return ms(time.Since(t0))
	}
	samples := map[string][]float64{}
	for r := 0; r < probeReps; r++ {
		c.St.InvalidateAll()
		samples["steiner.full_ms"] = append(samples["steiner.full_ms"], timed(func() { c.St.Total() }))
		c.Calc.InvalidateAll()
		c.Eng.InvalidateAll()
		samples["timing.full_ms"] = append(samples["timing.full_ms"], timed(func() { c.Eng.WorstSlack() }))
		c.Cong.InvalidateAll()
		samples["congestion.full_ms"] = append(samples["congestion.full_ms"], timed(func() { c.Cong.Analyze() }))

		k := len(movable)/100 + 1
		for i := 0; i < k; i++ {
			g := movable[rng.Intn(len(movable))]
			c.NL.MoveGate(g, g.X+1, g.Y)
		}
		samples["steiner.incr_ms"] = append(samples["steiner.incr_ms"], timed(func() { c.St.Total() }))
		samples["timing.incr_ms"] = append(samples["timing.incr_ms"], timed(func() { c.Eng.WorstSlack() }))
		samples["congestion.incr_ms"] = append(samples["congestion.incr_ms"], timed(func() { c.Cong.Analyze() }))
	}
	for k, xs := range samples {
		v[k] = median(xs)
	}
}

// coldEvalMs times what a fresh fork pays before its first decision:
// attaching a new analyzer stack (NewContext) and the first Evaluate.
// The .tpn parse is not included; netio.read_ms covers it.
func coldEvalMs(text string, workers int) (float64, error) {
	var xs []float64
	for r := 0; r < probeReps; r++ {
		gd, err := netio.Read(strings.NewReader(text), cell.Default())
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		c := scenario.NewContext(gd, 1)
		c.SetWorkers(workers)
		c.Evaluate("cold")
		xs = append(xs, ms(time.Since(t0)))
		c.Close()
	}
	return median(xs), nil
}

// netioProbe times the snapshot layer on a checkpoint: a .tpn write and
// read (the portfolio Forker path), and an in-memory Capture and Restore
// (the protect and serve design-store path).
func netioProbe(d *tps.Design, text string, v values) error {
	var w, r, c, s []float64
	for i := 0; i < probeReps; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := d.Save(&buf); err != nil {
			return err
		}
		w = append(w, ms(time.Since(t0)))

		t0 = time.Now()
		gd, err := netio.Read(strings.NewReader(text), cell.Default())
		if err != nil {
			return err
		}
		r = append(r, ms(time.Since(t0)))

		t0 = time.Now()
		st := netio.Capture(gd.NL)
		c = append(c, ms(time.Since(t0)))

		t0 = time.Now()
		if err := st.Restore(gd.NL); err != nil {
			return err
		}
		s = append(s, ms(time.Since(t0)))
	}
	v["netio.write_ms"] = median(w)
	v["netio.read_ms"] = median(r)
	v["netio.capture_ms"] = median(c)
	v["netio.restore_ms"] = median(s)
	return nil
}
