package autoflow

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netio"
	"tps/internal/portfolio"
	"tps/internal/scenario"

	// Register the full transform set (qplace, legalize, sync, …).
	_ "tps/internal/core"
)

// Test-only transform with an autoflow-unique name (the registry is
// process-global across test packages).
func init() {
	scenario.Register(scenario.Transform{
		Name: "affail", Doc: "test: always errors",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			return scenario.Report{}, errors.New("deliberate autoflow failure")
		},
	})
}

// baseScript is the search ancestor for these tests: a quick placement
// flow with one tunable step argument (assign_gains declares a gain
// domain in the registry).
const baseScript = `
scenario autobase
set budget 8
init {
  assign_gains gain=4
  qplace
  legalize
  sync
  evaluate flow=af
}
`

const failScript = `
scenario afdoom
init {
  affail
}
`

func baseDesign(t testing.TB, seed int64) *netio.State {
	t.Helper()
	p, err := gen.Des(1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = seed
	return netio.CaptureDesign(gen.Generate(cell.Default(), p))
}

// testSpec is a small but mutation-rich search: the param operator can
// retune assign_gains' declared gain domain and the scenario-level
// budget domain; insertion may add relieve steps.
func testSpec(name string) Spec {
	return Spec{
		Name:        name,
		Script:      baseScript,
		Objective:   "wire",
		Population:  2,
		Offspring:   4,
		Generations: 2,
		Seed:        11,
		Insert:      []string{"relieve"},
		Params: []scenario.ParamDomain{
			{Key: "budget", Kind: scenario.ParamInt, Lo: 4, Hi: 32},
		},
	}
}

// memTracer collects the emitted event stream (race evaluation emits
// concurrently, so it locks).
type memTracer struct {
	mu  sync.Mutex
	evs []scenario.Event
}

func (m *memTracer) Emit(e scenario.Event) {
	m.mu.Lock()
	m.evs = append(m.evs, e)
	m.mu.Unlock()
}

// TestSearchForkPerVariant is the snapshot-reuse contract: one base
// State serves every generation, and its fork count equals the variants
// actually evaluated — deduplicated children are never re-raced, and
// the base design is never captured again.
func TestSearchForkPerVariant(t *testing.T) {
	base := baseDesign(t, 7)
	res, err := Search(context.Background(), base, testSpec("forks"))
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if base.Forks() != res.Evaluated {
		t.Fatalf("base forked %d times, %d variants evaluated", base.Forks(), res.Evaluated)
	}
	if res.Evaluated < 1 || res.BestName == "" {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.BestObjective < res.BaseObjective {
		t.Fatalf("best %g lost to its own baseline %g", res.BestObjective, res.BaseObjective)
	}
	if len(res.Gens) != res.Generations {
		t.Fatalf("%d generation summaries for %d generations", len(res.Gens), res.Generations)
	}

	// The winning script is canonical: its text is a Format fixpoint.
	p, err := scenario.Parse(res.BestScript)
	if err != nil {
		t.Fatalf("winning script does not parse: %v", err)
	}
	if p.Format() != res.BestScript {
		t.Fatalf("winning script is not canonical:\n%s", res.BestScript)
	}

	// Adopting the winner's design reproduces its posted measurements.
	c := scenario.NewContext(res.BestDesign.Fork(), 1)
	defer c.Close()
	m := c.Evaluate("adopted")
	if m.SteinerWireUm != res.BestMetrics.SteinerWireUm {
		t.Fatalf("adopted design measures wire=%g, winner posted %g",
			m.SteinerWireUm, res.BestMetrics.SteinerWireUm)
	}
}

// TestSearchDeterminism is the headline contract: the same (design,
// spec) yields a bit-identical winning script, Metrics, AnalyzerStats,
// and generation history at Workers 1, 2, and 8, and under a permuted
// evaluation order.
func TestSearchDeterminism(t *testing.T) {
	type outcome struct {
		name, script string
		metrics      scenario.Metrics
		stats        scenario.AnalyzerStats
		gens         []GenSummary
	}
	run := func(workers int, salt uint64) outcome {
		t.Helper()
		spec := testSpec("det")
		spec.Workers = workers
		spec.permuteSalt = salt
		res, err := Search(context.Background(), baseDesign(t, 21), spec)
		if err != nil {
			t.Fatalf("workers=%d salt=%#x: %v", workers, salt, err)
		}
		m := *res.BestMetrics
		m.CPUSeconds = 0 // wall clock is the one legitimately varying field
		return outcome{res.BestName, res.BestScript, m, res.BestStats, res.Gens}
	}
	ref := run(1, 0)
	for _, c := range []struct {
		label string
		w     int
		salt  uint64
	}{
		{"workers=2", 2, 0},
		{"workers=8", 8, 0},
		{"workers=2 permuted", 2, 0xdecafbad},
	} {
		got := run(c.w, c.salt)
		if got.name != ref.name || got.script != ref.script {
			t.Fatalf("%s: winner %s diverged from serial %s\n%s\nvs\n%s",
				c.label, got.name, ref.name, got.script, ref.script)
		}
		if !reflect.DeepEqual(got.metrics, ref.metrics) {
			t.Fatalf("%s: metrics diverged:\n%+v\nvs\n%+v", c.label, got.metrics, ref.metrics)
		}
		if got.stats != ref.stats {
			t.Fatalf("%s: analyzer stats diverged:\n%+v\nvs\n%+v", c.label, got.stats, ref.stats)
		}
		if !reflect.DeepEqual(got.gens, ref.gens) {
			t.Fatalf("%s: generation history diverged:\n%+v\nvs\n%+v", c.label, got.gens, ref.gens)
		}
	}
}

// TestSearchTraceShape: the stream carries each evaluated variant's
// tagged flow (closed by its own flow_end), one gen_summary per
// generation, exactly one terminal autotune_verdict, and none of the
// inner races' race_verdict records.
func TestSearchTraceShape(t *testing.T) {
	tr := &memTracer{}
	spec := testSpec("shape")
	spec.Trace = tr
	res, err := Search(context.Background(), baseDesign(t, 31), spec)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	variantEnds := map[string]int{}
	gens, verdicts, raceVerdicts := 0, 0, 0
	for _, ev := range tr.evs {
		switch ev.Type {
		case scenario.EvGenSummary:
			gens++
		case scenario.EvAutotuneVerdict:
			verdicts++
		case scenario.EvRaceVerdict:
			raceVerdicts++
		case scenario.EvFlowEnd:
			if ev.Entrant != "" {
				variantEnds[ev.Entrant]++
			}
		}
	}
	if verdicts != 1 {
		t.Fatalf("%d autotune_verdict records, want 1", verdicts)
	}
	if raceVerdicts != 0 {
		t.Fatalf("%d race_verdict records leaked into the autoflow stream", raceVerdicts)
	}
	if gens != res.Generations {
		t.Fatalf("%d gen_summary records for %d generations", gens, res.Generations)
	}
	if len(variantEnds) != res.Evaluated {
		t.Fatalf("flow_end for %d variants, %d evaluated (%v)", len(variantEnds), res.Evaluated, variantEnds)
	}
	last := tr.evs[len(tr.evs)-1]
	if last.Type != scenario.EvAutotuneVerdict || last.Winner != res.BestName {
		t.Fatalf("terminal event = %+v, want the autotune_verdict for %s", last, res.BestName)
	}
}

// TestSearchNoWinner: a base script that always fails breeds only
// failing variants; the search reports ErrNoWinner with loop totals
// intact.
func TestSearchNoWinner(t *testing.T) {
	spec := Spec{
		Name: "doomed", Script: failScript, Objective: "wire",
		Population: 1, Offspring: 2, Generations: 2, Seed: 3,
	}
	res, err := Search(context.Background(), baseDesign(t, 5), spec)
	if !errors.Is(err, ErrNoWinner) {
		t.Fatalf("err = %v, want ErrNoWinner", err)
	}
	if res.BestName != "" || res.BestDesign != nil {
		t.Fatalf("no-winner search still adopted %q", res.BestName)
	}
	if res.Evaluated < 1 || res.Generations != 2 {
		t.Fatalf("loop totals wrong: %+v", res)
	}
}

// TestSearchStallRestart: with every step frozen and no declared
// domains, all children dedup onto the base, so nothing improves after
// generation 0 and Stall=1 fires a restart — while the dedup cache
// keeps the total evaluation count at exactly one flow.
func TestSearchStallRestart(t *testing.T) {
	spec := Spec{
		Name: "stall", Script: baseScript, Objective: "wire",
		Population: 2, Offspring: 3, Generations: 3, Stall: 1, Seed: 9,
		Freeze: []string{"assign_gains", "qplace", "legalize", "sync"},
	}
	res, err := Search(context.Background(), baseDesign(t, 13), spec)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if res.Evaluated != 1 {
		t.Fatalf("fully-frozen search evaluated %d variants, want 1 (dedup)", res.Evaluated)
	}
	if res.Restarts != 1 || !res.Gens[1].Restart {
		t.Fatalf("stall restart did not fire: %+v", res.Gens)
	}
	if res.Gens[2].Restart {
		t.Fatalf("restart fired on the final generation: %+v", res.Gens)
	}
	if res.BestName != "v0" {
		t.Fatalf("winner %s, want the base v0", res.BestName)
	}
}

// TestSearchDeadlineAbort: canceling the caller's context aborts the
// search; the partial result surfaces what finished.
func TestSearchParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := testSpec("cancel")
	res, err := Search(ctx, baseDesign(t, 17), spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Generations != 0 {
		t.Fatalf("canceled search claims %+v", res)
	}
}

// TestSearchSpecValidation: bad specs fail before any flow starts.
func TestSearchSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Spec)
		want string
	}{
		{"too many offspring", func(s *Spec) { s.Offspring = portfolio.MaxEntrants }, "exceeds the race limit"},
		{"bad objective", func(s *Spec) { s.Objective = "area" }, "unknown objective"},
		{"negative deadline", func(s *Spec) { s.Deadline = -time.Second }, "negative deadline"},
		{"no script", func(s *Spec) { s.Script = "" }, "no base script"},
		{"bad script", func(s *Spec) { s.Script = "scenario x\ninit {\n  no_such_transform\n}\n" }, "base script"},
		{"bad freeze", func(s *Spec) { s.Freeze = []string{"no_such_transform"} }, "freeze names unknown"},
		{"bad insert", func(s *Spec) { s.Insert = []string{"no_such_transform"} }, "insert names unknown"},
		{"bad domain", func(s *Spec) {
			s.Params = []scenario.ParamDomain{{Key: "x", Kind: scenario.ParamInt, Lo: 9, Hi: 1}}
		}, "bad param domain"},
		{"dup domain", func(s *Spec) {
			d := scenario.ParamDomain{Key: "budget", Kind: scenario.ParamInt, Lo: 1, Hi: 2}
			s.Params = []scenario.ParamDomain{d, d}
		}, "duplicate param domain"},
	}
	base := baseDesign(t, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec("bad")
			tc.mod(&spec)
			_, err := Search(context.Background(), base, spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParseSpec exercises the autotune spec grammar.
func TestParseSpec(t *testing.T) {
	var gotFlow, gotScript string
	resolve := func(flow, script string) (string, error) {
		gotFlow, gotScript = flow, script
		return baseScript, nil
	}
	spec, err := ParseSpec(`
# autotune spec
autotune demo
flow tps
objective tns
population 3
offspring 6
generations 5
stall 2
seed 42
deadline 2.5
workers 4
freeze qplace sync
insert relieve
weights param=6 cross=2
param budget int 4 64
param gain float 2 8
param reflow enum 0 1
`, resolve)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if gotFlow != "tps" || gotScript != "" || spec.Script != baseScript {
		t.Fatalf("base not resolved via flow: %q %q", gotFlow, gotScript)
	}
	if spec.Name != "demo" || spec.Objective != "tns" || spec.Population != 3 ||
		spec.Offspring != 6 || spec.Generations != 5 || spec.Stall != 2 ||
		spec.Seed != 42 || spec.Workers != 4 {
		t.Fatalf("header mismatch: %+v", spec)
	}
	if spec.Deadline != 2500*time.Millisecond {
		t.Fatalf("deadline %v", spec.Deadline)
	}
	if len(spec.Freeze) != 2 || len(spec.Insert) != 1 {
		t.Fatalf("freeze/insert mismatch: %+v", spec)
	}
	if spec.Weights != (MutationWeights{Param: 6, Cross: 2}) {
		t.Fatalf("weights mismatch: %+v", spec.Weights)
	}
	if len(spec.Params) != 3 ||
		!reflect.DeepEqual(spec.Params[0], scenario.ParamDomain{Key: "budget", Kind: scenario.ParamInt, Lo: 4, Hi: 64}) ||
		!reflect.DeepEqual(spec.Params[1], scenario.ParamDomain{Key: "gain", Kind: scenario.ParamFloat, Lo: 2, Hi: 8}) {
		t.Fatalf("domains mismatch: %+v", spec.Params)
	}
	if d := spec.Params[2]; d.Kind != scenario.ParamEnum || len(d.Enum) != 2 {
		t.Fatalf("enum domain mismatch: %+v", d)
	}

	// A script base resolves through the same callback.
	if _, err := ParseSpec("autotune s\nscript sub/flow.tps\n", resolve); err != nil {
		t.Fatalf("script base: %v", err)
	}
	if gotFlow != "" || gotScript != "sub/flow.tps" {
		t.Fatalf("script path not passed through: %q %q", gotFlow, gotScript)
	}

	for _, bad := range []string{
		"flow tps\n",                              // no autotune name
		"autotune a\n",                            // neither flow nor script
		"autotune a\nflow tps\nscript x\n",        // both
		"autotune a\nflow tps\nobjective area\n",  // bad objective
		"autotune a\nflow tps\npopulation 0\n",    // zero population
		"autotune a\nflow tps\ndeadline -1\n",     // bad deadline
		"autotune a\nflow tps\nweights vibes=1\n", // unknown operator
		"autotune a\nflow tps\nweights param=x\n", // malformed weight
		"autotune a\nflow tps\nparam k int 9 1\n", // inverted range
		"autotune a\nflow tps\nparam k bool 0\n",  // unknown kind
		"autotune a\nflow tps\nfrobnicate\n",      // unknown directive
	} {
		if _, err := ParseSpec(bad, resolve); err == nil {
			t.Fatalf("spec accepted: %q", bad)
		}
	}
}
