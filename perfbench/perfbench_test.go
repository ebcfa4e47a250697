package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tps"
	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netio"
	"tps/internal/portfolio"
	"tps/internal/scenario"

	// Every package that registers transforms, so the registry is whole.
	_ "tps/internal/clockscan"
	_ "tps/internal/core"
	_ "tps/internal/migrate"
	_ "tps/internal/netweight"
	_ "tps/internal/place"
	_ "tps/internal/quadratic"
	_ "tps/internal/relocate"
	_ "tps/internal/route"
	_ "tps/internal/sizing"
	_ "tps/internal/synth"
)

// TestLayerMapComplete fails when a transform is registered without a
// layer, so a new transform cannot land silently outside every layer.
func TestLayerMapComplete(t *testing.T) {
	known := map[string]bool{}
	for _, l := range stepLayers {
		known[l] = true
	}
	registered := map[string]bool{}
	for _, tr := range scenario.List() {
		registered[tr.Name] = true
		l, ok := layerOf[tr.Name]
		if !ok {
			t.Errorf("transform %q has no layer in layerOf", tr.Name)
		} else if !known[l] {
			t.Errorf("transform %q maps to %q, not one of %v", tr.Name, l, stepLayers)
		}
	}
	for name := range layerOf {
		if !registered[name] {
			t.Errorf("layerOf names %q, which no package registers", name)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program reports in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", bj.PerLayer, perLayer)
	}
}

// flowResult is what observation must not change: the metrics (less the
// wall clock) and the analyzer counters.
type flowResult struct {
	M     tps.Metrics
	Stats scenario.AnalyzerStats
}

func runSmallFlow(t *testing.T, w flowWorkload, workers int, traced bool) flowResult {
	t.Helper()
	d, sc, err := w.setUp(7, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if traced {
		rec := newRecorder()
		d.SetTrace(newFlowTracer(rec, d.Stats, 0, "flow", 0))
		defer func() {
			if len(rec.snapshot()) == 0 {
				t.Error("traced flow recorded no spans")
			}
		}()
	}
	op, err := w.op(context.Background(), d, sc)
	if err != nil {
		t.Fatal(err)
	}
	op.m.CPUSeconds = 0
	return flowResult{op.m, op.stats}
}

// TestFlowObservationNeutral runs the in-process workloads at reduced
// size traced and untraced, at Workers 1 and 2: Metrics and
// AnalyzerStats must be bit-identical.
func TestFlowObservationNeutral(t *testing.T) {
	small := map[string]flowWorkload{
		"tps_flow": {
			design:   gen.Params{Name: "tps_small", NumGates: 500, Levels: 8, Seed: 2},
			flowSeed: tpsFlow.flowSeed,
			script:   tpsFlow.script,
		},
		"place_50k": {
			design:   gen.Params{Name: "place_small", NumGates: 3000, Levels: 12, Seed: 42},
			flowSeed: place50k.flowSeed,
			script:   place50k.script,
		},
	}
	for name, w := range small {
		t.Run(name, func(t *testing.T) {
			base := runSmallFlow(t, w, 2, false)
			if got := runSmallFlow(t, w, 2, true); got != base {
				t.Errorf("traced run differs:\n%+v\n%+v", got, base)
			}
			if got := runSmallFlow(t, w, 1, false); got != base {
				t.Errorf("Workers=1 run differs:\n%+v\n%+v", got, base)
			}
		})
	}
}

// TestEcoObservationNeutral runs tpsd_eco at reduced size through the
// server, with and without span recording, and requires each job's
// winner to equal an in-process portfolio.Race of the same entrants on
// the same checkpoint, traced and untraced, at Workers 1 and 2.
func TestEcoObservationNeutral(t *testing.T) {
	w := ecoWorkload{
		design: gen.Params{Name: "eco_small", NumGates: 800, Levels: 8, Seed: 3},
	}
	ctx := context.Background()
	const seed = 5
	ckpt, text, err := w.checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Close()
	s, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	if err := s.upload(ctx, text); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	for j := 0; j < 3; j++ {
		var ss *streamSpans
		if j%2 == 1 {
			ss = &streamSpans{rec: rec}
		}
		job, err := s.job(ctx, seed, j, ss)
		if err != nil {
			t.Fatal(err)
		}
		job.m.CPUSeconds = 0
		var ref *portfolio.Verdict
		for _, width := range []int{1, 2} {
			for _, traced := range []bool{false, true} {
				v := raceInProcess(t, text, seed, j, width, traced)
				if v.Name != job.winner || *v.Metrics != job.m {
					t.Errorf("job %d: in-process race (workers=%d traced=%v) won %s %+v; server %s %+v",
						j, width, traced, v.Name, *v.Metrics, job.winner, job.m)
				}
				if ref == nil {
					ref = &v
				} else if v.Stats != ref.Stats {
					t.Errorf("job %d: winner stats differ at workers=%d traced=%v: %+v vs %+v",
						j, width, traced, v.Stats, ref.Stats)
				}
			}
		}
	}
	if len(rec.snapshot()) == 0 {
		t.Error("traced job recorded no spans")
	}
}

// raceInProcess races job j's entrants on the checkpoint text directly
// and returns the winner's verdict with its wall clock cleared.
func raceInProcess(t *testing.T, text string, seed int64, j, workers int, traced bool) portfolio.Verdict {
	t.Helper()
	gd, err := netio.Read(strings.NewReader(text), cell.Default())
	if err != nil {
		t.Fatal(err)
	}
	spec := portfolio.Spec{Name: "ref", Workers: workers, EntrantWorkers: 1}
	for _, e := range ecoEntrants(seed, j) {
		spec.Entrants = append(spec.Entrants, portfolio.Entrant{
			Name: e.Name, Script: ecoScript, Seed: e.Seed, Params: e.Params,
		})
	}
	if traced {
		spec.Trace = scenario.MultiTracer{}
	}
	res, err := portfolio.Race(context.Background(), gd, spec)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Verdicts[res.Winner]
	m := *v.Metrics
	m.CPUSeconds = 0
	v.Metrics = &m
	return v
}
