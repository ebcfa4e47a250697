package portfolio_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/portfolio"
	"tps/internal/scenario"

	// Register the full transform set (qplace, legalize, sync, …).
	_ "tps/internal/core"
)

// Test-only transforms with portfolio-unique names (the registry is
// process-global across test packages).
func init() {
	scenario.Register(scenario.Transform{
		Name: "pstall", Doc: "test: block until canceled (2 s cap)",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				if err := c.Interrupted(); err != nil {
					return scenario.Report{}, err
				}
				time.Sleep(2 * time.Millisecond)
			}
			return scenario.Report{}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "pfail", Doc: "test: always errors",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			return scenario.Report{}, errors.New("deliberate portfolio failure")
		},
	})
	scenario.Register(scenario.Transform{
		Name: "pboom", Doc: "test: always panics",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			panic("deliberate portfolio panic")
		},
	})
}

const quickScript = `
scenario quick
init {
  qplace
  legalize
  sync
  evaluate flow=race
}
`

const stallScript = `
scenario slow
init {
  pstall
}
`

const failScript = `
scenario doomed
init {
  pfail
}
`

func baseDesign(t *testing.T, seed int64) *gen.Design {
	t.Helper()
	p, err := gen.Des(1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = seed
	return gen.Generate(cell.Default(), p)
}

func quickEntrants(n int) []portfolio.Entrant {
	es := make([]portfolio.Entrant, n)
	for i := range es {
		es[i] = portfolio.Entrant{Script: quickScript, Seed: int64(i + 1)}
	}
	return es
}

// TestRaceSeedVariants races four seed variants of the same script and
// checks the basic contract: every entrant finishes, the winner is the
// objective argmax, and the adopted design text reproduces the winner's
// measurements exactly.
func TestRaceSeedVariants(t *testing.T) {
	base := baseDesign(t, 7)
	res, err := portfolio.Race(context.Background(), base, portfolio.Spec{
		Name: "seeds", Entrants: quickEntrants(4), Workers: 4,
	})
	if err != nil {
		t.Fatalf("race: %v", err)
	}
	if len(res.Verdicts) != 4 {
		t.Fatalf("got %d verdicts", len(res.Verdicts))
	}
	best := -1
	for i, v := range res.Verdicts {
		if v.Status != portfolio.StatusFinished {
			t.Fatalf("entrant %d status %s (err %q)", i, v.Status, v.Err)
		}
		if v.Metrics == nil {
			t.Fatalf("entrant %d has no metrics", i)
		}
		if v.Objective != v.Metrics.WorstSlack {
			t.Fatalf("entrant %d objective %g != worst slack %g", i, v.Objective, v.Metrics.WorstSlack)
		}
		if best < 0 || v.Objective > res.Verdicts[best].Objective {
			best = i
		}
	}
	if res.Winner != best {
		t.Fatalf("winner %d, objective argmax %d", res.Winner, best)
	}

	// Adopt the winner: a fork of its final State must measure
	// identically to the winner's final metrics.
	c := scenario.NewContext(res.WinnerDesign.Fork(), 1)
	defer c.Close()
	m := c.Evaluate("adopted")
	w := res.Verdicts[res.Winner]
	if m.WorstSlack != w.Metrics.WorstSlack || m.SteinerWireUm != w.Metrics.SteinerWireUm {
		t.Fatalf("adopted design measures slack=%g wire=%g, winner posted slack=%g wire=%g",
			m.WorstSlack, m.SteinerWireUm, w.Metrics.WorstSlack, w.Metrics.SteinerWireUm)
	}
}

// TestRaceTieBreak: identical entrants tie on the objective, and the
// lowest index must win — at every width and under reordering.
func TestRaceTieBreak(t *testing.T) {
	base := baseDesign(t, 3)
	es := make([]portfolio.Entrant, 4)
	for i := range es {
		es[i] = portfolio.Entrant{Script: quickScript, Seed: 9} // all identical
	}
	for _, w := range []int{1, 2, 4} {
		res, err := portfolio.Race(context.Background(), base, portfolio.Spec{Entrants: es, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Winner != 0 {
			t.Fatalf("workers=%d: tie broke to %d, want 0", w, res.Winner)
		}
	}
}

// TestRaceEarlyStopDominated: a declared Bound below any reachable
// objective makes later entrants skippable the moment one finishes.
// At Workers=1 the victims never start; at Workers=2 a running victim
// is interrupted mid-flow. Either way they report dominated, and the
// winner is unaffected.
func TestRaceEarlyStopDominated(t *testing.T) {
	base := baseDesign(t, 5)
	hopeless := -1e18
	spec := portfolio.Spec{
		Entrants: []portfolio.Entrant{
			{Name: "fast", Script: quickScript, Seed: 1},
			{Name: "doomed1", Script: stallScript, Seed: 2, Bound: &hopeless},
			{Name: "doomed2", Script: stallScript, Seed: 3, Bound: &hopeless},
		},
	}
	for _, w := range []int{1, 2} {
		spec.Workers = w
		start := time.Now()
		res, err := portfolio.Race(context.Background(), base, spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Winner != 0 {
			t.Fatalf("workers=%d: winner %d", w, res.Winner)
		}
		for _, i := range []int{1, 2} {
			if got := res.Verdicts[i].Status; got != portfolio.StatusDominated {
				t.Fatalf("workers=%d: entrant %d status %s, want dominated", w, i, got)
			}
			if res.Verdicts[i].Metrics != nil {
				t.Fatalf("workers=%d: dominated entrant %d has metrics", w, i)
			}
		}
		// Early-stop must actually stop: nowhere near the 2 s stall cap
		// per victim.
		if d := time.Since(start); d > 3*time.Second {
			t.Fatalf("workers=%d: race took %v; early-stop did not fire", w, d)
		}
	}

	// With early-stop disabled the victims run to their own end.
	spec.Workers = 4
	spec.NoEarlyStop = true
	spec.Entrants[1].Script = quickScript
	spec.Entrants[2].Script = quickScript
	res, err := portfolio.Race(context.Background(), base, spec)
	if err != nil {
		t.Fatalf("no-early-stop race: %v", err)
	}
	for i, v := range res.Verdicts {
		if v.Status != portfolio.StatusFinished {
			t.Fatalf("no-early-stop: entrant %d status %s", i, v.Status)
		}
	}
}

// TestRaceDeadline: the shared deadline clips still-running entrants
// (verdict deadline) without aborting the race — finished entrants
// still produce a winner.
func TestRaceDeadline(t *testing.T) {
	base := baseDesign(t, 9)
	res, err := portfolio.Race(context.Background(), base, portfolio.Spec{
		Entrants: []portfolio.Entrant{
			{Name: "fast", Script: quickScript, Seed: 1},
			{Name: "slow", Script: stallScript, Seed: 2},
		},
		Workers:  2,
		Deadline: 900 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("race: %v", err)
	}
	if res.Winner != 0 {
		t.Fatalf("winner %d, want the fast entrant", res.Winner)
	}
	if got := res.Verdicts[1].Status; got != portfolio.StatusDeadline {
		t.Fatalf("slow entrant status %s, want deadline", got)
	}
}

// TestRaceParentCancel: canceling the caller's context aborts the whole
// race through the cooperative-interrupt path.
func TestRaceParentCancel(t *testing.T) {
	base := baseDesign(t, 13)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	res, err := portfolio.Race(ctx, base, portfolio.Spec{
		Entrants: []portfolio.Entrant{
			{Script: stallScript, Seed: 1},
			{Script: stallScript, Seed: 2},
		},
		Workers: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, v := range res.Verdicts {
		if v.Status != portfolio.StatusCanceled {
			t.Fatalf("entrant %d status %s, want canceled", i, v.Status)
		}
	}
}

// TestRaceNoWinner: all entrants failing yields ErrNoWinner and the
// full verdict table.
func TestRaceNoWinner(t *testing.T) {
	base := baseDesign(t, 17)
	res, err := portfolio.Race(context.Background(), base, portfolio.Spec{
		Entrants: []portfolio.Entrant{
			{Script: failScript, Seed: 1},
			{Script: failScript, Seed: 2},
		},
		Workers: 2,
	})
	if !errors.Is(err, portfolio.ErrNoWinner) {
		t.Fatalf("err = %v, want ErrNoWinner", err)
	}
	if res.Winner != -1 || res.WinnerDesign != nil {
		t.Fatalf("no-winner race still adopted %d", res.Winner)
	}
	for i, v := range res.Verdicts {
		if v.Status != portfolio.StatusFailed || v.Err == "" {
			t.Fatalf("entrant %d: status %s err %q", i, v.Status, v.Err)
		}
	}
}

// TestRacePanickingEntrant: an entrant whose transform panics fails on
// its own — verdict failed, panic value and stack in its error — while
// the race goes on and adopts the entrant that finished.
func TestRacePanickingEntrant(t *testing.T) {
	base := baseDesign(t, 18)
	res, err := portfolio.Race(context.Background(), base, portfolio.Spec{
		Entrants: []portfolio.Entrant{
			{Script: "scenario boom\ninit {\n  qplace\n  pboom\n}\n", Seed: 1},
			{Script: quickScript, Seed: 2},
		},
		Workers: 2,
	})
	if err != nil {
		t.Fatalf("race with one panicking entrant: %v", err)
	}
	v := res.Verdicts[0]
	if v.Status != portfolio.StatusFailed || !strings.Contains(v.Err, "panic: deliberate portfolio panic") || !strings.Contains(v.Err, "goroutine ") {
		t.Fatalf("panicking entrant: status %s err %q, want failed with panic value and stack", v.Status, v.Err)
	}
	if res.Winner != 1 || res.Verdicts[1].Status != portfolio.StatusFinished {
		t.Fatalf("winner %d (%+v), want the finished entrant 1", res.Winner, res.Verdicts[1])
	}
}

// TestRaceEntrantUnknownObjective: an entrant whose Params overlay
// names an objective outside the vocabulary fails on its own instead of
// being judged by slack; the race adopts the entrant that finished.
func TestRaceEntrantUnknownObjective(t *testing.T) {
	res, err := portfolio.Race(context.Background(), baseDesign(t, 19), portfolio.Spec{
		Entrants: []portfolio.Entrant{
			{Script: quickScript, Seed: 1, Params: map[string]string{"objective": "area"}},
			{Script: quickScript, Seed: 2},
		},
		Workers: 2,
	})
	if err != nil {
		t.Fatalf("race: %v", err)
	}
	if v := res.Verdicts[0]; v.Status != portfolio.StatusFailed || !strings.Contains(v.Err, `unknown objective "area"`) {
		t.Fatalf("entrant 0: status %s err %q, want failed on the unknown objective", v.Status, v.Err)
	}
	if res.Winner != 1 {
		t.Fatalf("winner %d, want the finished entrant 1", res.Winner)
	}
}

// TestRaceSpecValidation: bad specs fail before any flow starts.
func TestRaceSpecValidation(t *testing.T) {
	base := baseDesign(t, 1)
	cases := []struct {
		name string
		spec portfolio.Spec
		want string
	}{
		{"no entrants", portfolio.Spec{}, "at least one"},
		{"bad objective", portfolio.Spec{Objective: "area", Entrants: quickEntrants(1)}, "unknown objective"},
		{"dup names", portfolio.Spec{Entrants: []portfolio.Entrant{
			{Name: "x", Script: quickScript}, {Name: "x", Script: quickScript},
		}}, "share the name"},
		{"empty script", portfolio.Spec{Entrants: []portfolio.Entrant{{Name: "x"}}}, "no script"},
		{"bad script", portfolio.Spec{Entrants: []portfolio.Entrant{
			{Name: "x", Script: "scenario x\ninit {\n  no_such_transform\n}\n"},
		}}, "unknown transform"},
		{"too many entrants", portfolio.Spec{Entrants: quickEntrants(portfolio.MaxEntrants + 1)}, "exceeds the limit"},
		{"negative deadline", portfolio.Spec{Deadline: -time.Second, Entrants: quickEntrants(1)}, "negative deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := portfolio.Race(context.Background(), base, tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParseSpec exercises the race spec grammar.
func TestParseSpec(t *testing.T) {
	resolve := func(flow, script string) (string, error) {
		switch {
		case flow == "tps":
			return quickScript, nil
		case script != "":
			return stallScript, nil
		}
		return "", errors.New("unknown flow " + flow)
	}
	spec, err := portfolio.ParseSpec(`
# race spec
portfolio demo
objective tns
deadline 2.5
workers 3
entrant name=a flow=tps
entrant name=b flow=tps seed=42 bound=-5 set.budget=16 set.step=10
entrant name=c script=some/file.tps
`, resolve)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Name != "demo" || spec.Objective != "tns" || spec.Workers != 3 {
		t.Fatalf("header mismatch: %+v", spec)
	}
	if spec.Deadline != 2500*time.Millisecond {
		t.Fatalf("deadline %v", spec.Deadline)
	}
	if len(spec.Entrants) != 3 {
		t.Fatalf("%d entrants", len(spec.Entrants))
	}
	a, b, c := spec.Entrants[0], spec.Entrants[1], spec.Entrants[2]
	if a.Seed != 1 {
		t.Fatalf("entrant a default seed %d, want index+1", a.Seed)
	}
	if b.Seed != 42 || b.Bound == nil || *b.Bound != -5 ||
		b.Params["budget"] != "16" || b.Params["step"] != "10" {
		t.Fatalf("entrant b mismatch: %+v", b)
	}
	if c.Script != stallScript {
		t.Fatalf("entrant c script not resolved")
	}

	for _, bad := range []string{
		"entrant flow=tps\n",                              // no portfolio name
		"portfolio p\n",                                   // no entrants
		"portfolio p\nentrant\n",                          // neither flow nor script
		"portfolio p\nentrant flow=tps script=x\n",        // both
		"portfolio p\nobjective area\nentrant flow=tps\n", // bad objective
		"portfolio p\ndeadline -3\nentrant flow=tps\n",    // bad deadline
		"portfolio p\nentrant flow=tps set.=v\n",          // empty param key
		"portfolio p\nfrobnicate\n",                       // unknown directive
	} {
		if _, err := portfolio.ParseSpec(bad, resolve); err == nil {
			t.Fatalf("spec accepted: %q", bad)
		}
	}
}
