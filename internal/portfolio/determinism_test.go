package portfolio_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netio"
	"tps/internal/portfolio"
	"tps/internal/scenario"
)

// The determinism regression suite (run under -race in CI): a race's
// winner identity, the winner's Metrics, and the winner's AnalyzerStats
// must be bit-identical at Workers=1/2/8 and under any entrant
// permutation. Workers=1 runs entrants serially in index order, so it is
// the reference schedule the wide runs must reproduce.

// raceScript is deliberately richer than the quick flow: a protected
// step exercises checkpoint capture/rollback inside concurrent entrants.
const raceScript = `
scenario det
init {
  qplace
  legalize
  detailed
  sync
  size_speed protect margin=60 budget=8
  legalize
  sync
  evaluate flow=det
}
`

type outcome struct {
	winner    string
	objective float64
	metrics   scenario.Metrics
	stats     scenario.AnalyzerStats
}

func raceOutcome(t *testing.T, base *gen.Design, entrants []portfolio.Entrant, workers int) outcome {
	t.Helper()
	// Objective wire: on this small flow the worst slack can tie across
	// seeds (the critical path is gate-dominated), but total Steiner wire
	// is seed-distinct — so the winner is decided by measurement, not by
	// tie-break position.
	res, err := portfolio.Race(context.Background(), base, portfolio.Spec{
		Name: "det", Entrants: entrants, Workers: workers, Objective: "wire",
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	w := res.Verdicts[res.Winner]
	m := *w.Metrics
	m.CPUSeconds = 0 // the only timing-dependent field
	return outcome{winner: w.Name, objective: w.Objective, metrics: m, stats: w.Stats}
}

func detEntrants() []portfolio.Entrant {
	return []portfolio.Entrant{
		{Name: "s1", Script: raceScript, Seed: 1},
		{Name: "s2", Script: raceScript, Seed: 2},
		{Name: "s3", Script: raceScript, Seed: 3},
		{Name: "s4-b16", Script: raceScript, Seed: 4, Params: map[string]string{"budget": "16"}},
	}
}

func TestRaceDeterministicAcrossWidths(t *testing.T) {
	base := baseDesign(t, 21)
	ref := raceOutcome(t, base, detEntrants(), 1)
	for _, w := range []int{2, 8} {
		got := raceOutcome(t, base, detEntrants(), w)
		if got.winner != ref.winner || got.objective != ref.objective {
			t.Fatalf("workers=%d: winner %s obj=%g, workers=1 picked %s obj=%g",
				w, got.winner, got.objective, ref.winner, ref.objective)
		}
		if !reflect.DeepEqual(got.metrics, ref.metrics) {
			t.Fatalf("workers=%d: winner metrics drifted\ngot:  %+v\nwant: %+v", w, got.metrics, ref.metrics)
		}
		if got.stats != ref.stats {
			t.Fatalf("workers=%d: winner analyzer stats drifted\ngot:  %+v\nwant: %+v", w, got.stats, ref.stats)
		}
	}
}

func TestRaceDeterministicUnderReordering(t *testing.T) {
	base := baseDesign(t, 21)
	ref := raceOutcome(t, base, detEntrants(), 4)

	// Reverse and rotate the entrant list: the winner is still the same
	// flow (identified by name), with identical measurements. Only the
	// tie-break depends on position, and seed-distinct entrants do not
	// tie.
	rev := detEntrants()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	rot := detEntrants()
	rot = append(rot[1:], rot[0])

	for name, es := range map[string][]portfolio.Entrant{"reversed": rev, "rotated": rot} {
		got := raceOutcome(t, base, es, 4)
		if got.winner != ref.winner || got.objective != ref.objective {
			t.Fatalf("%s: winner %s obj=%g, want %s obj=%g", name, got.winner, got.objective, ref.winner, ref.objective)
		}
		if !reflect.DeepEqual(got.metrics, ref.metrics) {
			t.Fatalf("%s: winner metrics drifted", name)
		}
		if got.stats != ref.stats {
			t.Fatalf("%s: winner analyzer stats drifted", name)
		}
	}
}

// ecoScript is a protected ECO on a placed design. Its first timing
// query comes before any edit, so a race entrant installs its State's
// shared first timing pass, while a solo run computes its own.
const ecoScript = `
scenario eco
set budget 8
init {
  mode m=actual
  size_speed protect tol=0 margin=60
  buffer protect tol=0
  evaluate flow=eco
}
`

// placedBase is baseDesign after a quadratic placement and legalization,
// as an ECO's checkpoint would be.
func placedBase(t *testing.T, seed int64) *gen.Design {
	t.Helper()
	d := baseDesign(t, seed)
	s, err := scenario.Parse("scenario place\ninit {\n  qplace\n  legalize\n  evaluate\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	c := scenario.NewContext(d, 1)
	defer c.Close()
	c.SetWorkers(1)
	if _, err := scenario.Run(c, s); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRaceEntrantMatchesSoloRun: racing does not perturb the entrants.
// Each verdict's metrics equal a standalone run of the same script and
// seed on the same base design — the fork isolation contract, end to
// end. The solo runs never fork: on the generated design they run on
// the design itself; on the placed one, on its .tpn text read back,
// which a fork equals in full state. The ECO entrants install their
// State's first timing pass, so they evaluate fewer pins than their solo
// runs, to the same metrics.
func TestRaceEntrantMatchesSoloRun(t *testing.T) {
	eco := []portfolio.Entrant{
		{Name: "eco1", Script: ecoScript, Seed: 1},
		{Name: "eco2", Script: ecoScript, Seed: 2, Params: map[string]string{"margin": "80"}},
	}
	for _, race := range []struct {
		name     string
		base     func() *gen.Design
		entrants []portfolio.Entrant
		eco      bool
	}{
		{"generated", func() *gen.Design { return baseDesign(t, 33) }, detEntrants()[:3], false},
		{"placed", func() *gen.Design { return placedBase(t, 33) }, eco, true},
	} {
		res, err := portfolio.Race(context.Background(), race.base(), portfolio.Spec{
			Entrants: race.entrants, Workers: 3, NoEarlyStop: true,
		})
		if err != nil {
			t.Fatalf("%s race: %v", race.name, err)
		}
		for i, e := range race.entrants {
			s, err := scenario.Parse(e.Script)
			if err != nil {
				t.Fatal(err)
			}
			solo := race.base()
			if race.eco {
				var b bytes.Buffer
				if err := netio.Write(&b, solo); err != nil {
					t.Fatal(err)
				}
				if solo, err = netio.Read(&b, cell.Default()); err != nil {
					t.Fatal(err)
				}
			}
			c := scenario.NewContext(solo, e.Seed)
			c.SetWorkers(1)
			c.Params = e.Params
			want, err := scenario.Run(c, s)
			if err != nil {
				c.Close()
				t.Fatalf("solo run %s: %v", e.Name, err)
			}
			soloStats := c.AnalyzerStats()
			c.Close()
			v := res.Verdicts[i]
			got := *v.Metrics
			want.CPUSeconds, got.CPUSeconds = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("entrant %s diverged from its solo run\nrace: %+v\nsolo: %+v", e.Name, got, want)
			}
			t.Logf("%s/%s: %d accepted, %d rejected; %d pin evaluations, solo %d", race.name, e.Name,
				v.Accepts, v.Rejects, v.Stats.TimingRecomputes, soloStats.TimingRecomputes)
			if race.eco && v.Stats.TimingRecomputes >= soloStats.TimingRecomputes {
				t.Fatalf("entrant %s evaluated %d pins, its solo run %d: the shared first pass was not installed",
					e.Name, v.Stats.TimingRecomputes, soloStats.TimingRecomputes)
			}
		}
	}
}
