package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"tps"
	"tps/internal/gen"
	"tps/internal/scenario"
)

// placeScript is place_50k's flow: a 0→100 min-cut placement in one
// status advance, then spreading, legalization and one evaluation, in
// gain mode with no synthesis.
const placeScript = `scenario place
set step 100
init {
  mode m=gain
  assign_gains gain=4
}
status {
  partition reflow=1
}
final {
  spread
  bindim0
  legalize
  evaluate flow=place
}
`

// flowWorkload runs one scenario flow per operation, in process, on a
// freshly generated copy of a pinned design. The workload seed chooses
// the flow's own seed (the placer's random stream) through flowSeed.
type flowWorkload struct {
	design   gen.Params
	flowSeed func(seed int64) int64
	script   string
}

// flowOp is one finished operation.
type flowOp struct {
	m      tps.Metrics
	wall   time.Duration
	stats  scenario.AnalyzerStats
	phase  map[string]time.Duration
	acc    int
	rej    int
	rounds []float64 // status-round wall times of a traced operation, ms
}

// setUp generates the design and parses the flow: the work setup_s
// times.
func (w flowWorkload) setUp(seed int64, workers int) (*tps.Design, *tps.Scenario, error) {
	d := tps.NewDesign(w.design)
	d.Context().Seed = w.flowSeed(seed)
	d.SetWorkers(workers)
	sc, err := tps.ParseScenario(w.script)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	return d, sc, nil
}

// op runs the flow on d and checks its output: the flow must succeed,
// the placement must be legal, and the metrics must be sane.
func (w flowWorkload) op(ctx context.Context, d *tps.Design, sc *tps.Scenario) (flowOp, error) {
	t0 := time.Now()
	var m tps.Metrics
	err := guarded(func() error {
		var err error
		m, err = d.RunScenarioContext(ctx, sc)
		return err
	})
	wall := time.Since(t0)
	if err != nil {
		return flowOp{}, err
	}
	if err := d.CheckLegal(); err != nil {
		return flowOp{}, fmt.Errorf("illegal placement: %w", err)
	}
	if err := checkMetrics(m); err != nil {
		return flowOp{}, err
	}
	c := d.Context()
	return flowOp{m: m, wall: wall, stats: d.Stats(), phase: d.PhaseTimes(), acc: c.Accepts, rej: c.Rejects}, nil
}

// checkMetrics rejects a result no correct flow produces.
func checkMetrics(m tps.Metrics) error {
	for _, x := range []float64{m.WorstSlack, m.TNS, m.AreaUm2, m.SteinerWireUm, m.CycleAchieved} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("non-finite metric in %+v", m)
		}
	}
	if m.ICells <= 0 || m.AreaUm2 <= 0 || m.SteinerWireUm <= 0 || m.CycleAchieved <= 0 || m.TNS > 0 {
		return fmt.Errorf("implausible metrics %+v", m)
	}
	return nil
}

// run measures the workload. A traced run spends half the budget
// untraced and half traced, so it can report the tracing overhead.
func (w flowWorkload) run(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		d, _, err := w.setUp(cfg.seed, benchWorkers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		d.Close()
	}

	budget := cfg.budget()
	if cfg.trace {
		budget /= 2
	}
	plain, region, _, err := w.ops(ctx, out, cfg.seed, budget, nil, 0)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = median(setups)
	walls := wallsOf(plain)
	out.e2e["wall_s"] = median(walls)
	out.e2e["job_latency_p50_s"] = median(walls)
	out.e2e["job_latency_p90_s"] = percentile(walls, 90)
	out.e2e["jobs_per_s"] = float64(len(plain)) / region.Seconds()
	if len(plain) > 0 {
		addQoR(out.e2e, plain[len(plain)-1].m)
	}
	if !cfg.trace {
		return out, nil
	}
	return out, w.traced(ctx, cfg, out, budget, walls)
}

// ops runs operations on fresh designs until one more of the mean
// length so far would overrun budget; at least one is attempted. With
// rec set, each operation is traced into a job span under root, and the
// last finished design is returned open for the probes. It also returns
// the finished operations and the time they took.
func (w flowWorkload) ops(ctx context.Context, out *outcome, seed int64, budget time.Duration, rec *recorder, root int) (done []flowOp, region time.Duration, last *tps.Design, err error) {
	start := time.Now()
	for len(done) == 0 || fits(start, budget, done) {
		d, sc, err := w.setUp(seed, benchWorkers)
		if err != nil {
			return done, time.Since(start), last, err
		}
		var tr *flowTracer
		js := 0
		if rec != nil {
			job := len(done)
			js = rec.open(root, "job", fmt.Sprintf("op%d", job), job, "", time.Now())
			tr = newFlowTracer(rec, d.Stats, job, "flow", js)
			d.SetTrace(tr)
		}
		op, err := w.op(ctx, d, sc)
		if rec != nil {
			rec.close(js, time.Now(), nil)
		}
		out.attempted++
		if err != nil {
			d.Close()
			out.fail(err)
			if time.Since(start) > budget {
				break
			}
			continue
		}
		if rec == nil {
			// Untraced runs report peak RSS: hold one design at a time.
			d.Close()
			done = append(done, op)
			continue
		}
		op.rounds = tr.rounds
		done = append(done, op)
		if last != nil {
			last.Close()
		}
		last = d
	}
	return done, time.Since(start), last, nil
}

// traced runs the traced half of a traced run and fills the per-layer
// metrics.
func (w flowWorkload) traced(ctx context.Context, cfg config, out *outcome, budget time.Duration, plainWalls []float64) error {
	rec := newRecorder()
	root := rec.open(0, "workload", cfg.workload, 0, "", rec.t0)
	ops, _, last, err := w.ops(ctx, out, cfg.seed, budget, rec, root)
	rec.close(root, time.Now(), nil)
	if last != nil {
		defer last.Close()
	}
	if err != nil {
		return err
	}
	if len(ops) == 0 {
		return fmt.Errorf("no traced operation finished")
	}

	v := out.layers
	n := float64(len(ops))
	var rounds []float64
	for _, op := range ops {
		rounds = append(rounds, op.rounds...)
		v["place.partition_ms"] += ms(op.phase["partition"]) / n
		v["place.reflow_ms"] += ms(op.phase["reflow"]) / n
		v["place.detailed_ms"] += ms(op.phase["detailed"]) / n
		v["place.legalize_ms"] += ms(op.phase["legalize"]) / n
		addStats(v, op.stats, n)
		v["route.wire_um"] += op.m.RoutedWireUm / n
		v["route.overflows"] += float64(op.m.RouteOverflows) / n
		v["scenario.protect_accepts"] += float64(op.acc) / n
		v["scenario.protect_rejects"] += float64(op.rej) / n
	}
	spans := rec.snapshot()
	addStepLayers(v, spans, len(ops))
	v["scenario.overhead_ms"] = interpreterOverheadMs(spans, len(ops))
	v["scenario.status_round_ms"] = mean(rounds)
	if m := median(plainWalls); m > 0 {
		v["trace_overhead"] = median(wallsOf(ops)) / m
	}

	var buf bytes.Buffer
	if err := last.Save(&buf); err != nil {
		return fmt.Errorf("save final design: %w", err)
	}
	cold, err := coldEvalMs(buf.String(), benchWorkers)
	if err != nil {
		return err
	}
	v["scenario.cold_eval_ms"] = cold
	analyzerProbe(last.Context(), cfg.seed, v)
	out.spans = rec
	return nil
}

// addQoR records the QoR guards of one result.
func addQoR(v values, m tps.Metrics) {
	v["cycle_ps"] = m.CycleAchieved
	v["tns_ps"] = -m.TNS
	v["area_um2"] = m.AreaUm2
	v["steiner_wire_um"] = m.SteinerWireUm
}

// addStats adds one operation's analyzer and FM totals, scaled by 1/n.
func addStats(v values, st scenario.AnalyzerStats, n float64) {
	v["timing.recomputes"] += float64(st.TimingRecomputes) / n
	v["steiner.rebuilds"] += float64(st.SteinerRebuilds) / n
	v["congestion.full_passes"] += float64(st.CongestionFullPasses) / n
	v["congestion.incr_passes"] += float64(st.CongestionIncrementalPasses) / n
	v["partition.fm_pushes"] += float64(st.FM.Pushes) / n
	v["partition.fm_pops"] += float64(st.FM.Pops) / n
	v["partition.fm_gain_updates"] += float64(st.FM.GainUpdates) / n
	if st.FM.Pops > 0 {
		v["partition.fm_useful_frac"] += (1 - float64(st.FM.StalePops)/float64(st.FM.Pops)) / n
	}
}

// fits reports whether one more operation of the mean length so far
// still ends within budget of start.
func fits(start time.Time, budget time.Duration, ops []flowOp) bool {
	var total time.Duration
	for _, op := range ops {
		total += op.wall
	}
	return time.Since(start)+total/time.Duration(len(ops)) <= budget
}

// wallsOf returns the operations' wall times in seconds.
func wallsOf(ops []flowOp) []float64 {
	walls := make([]float64, len(ops))
	for i, op := range ops {
		walls[i] = op.wall.Seconds()
	}
	return walls
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
