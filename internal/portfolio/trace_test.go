package portfolio_test

import (
	"context"
	"sync"
	"testing"

	"tps/internal/portfolio"
	"tps/internal/scenario"
)

// recorder is a thread-safe tracer preserving emission order.
type recorder struct {
	mu     sync.Mutex
	events []scenario.Event
}

func (r *recorder) Emit(e scenario.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// TestRaceTraceInvariants pins the merged-stream contract for a
// concurrent race: per-entrant seq is strictly 1,2,3,… (each entrant is
// its own flow), every entrant closes with exactly one flow_end carrying
// its verdict status, every flow event is entrant-tagged, and exactly
// one race_verdict record ends the stream.
func TestRaceTraceInvariants(t *testing.T) {
	base := baseDesign(t, 19)
	rec := &recorder{}
	res, err := portfolio.Race(context.Background(), base, portfolio.Spec{
		Name: "traced", Entrants: quickEntrants(4), Workers: 4, Trace: rec,
	})
	if err != nil {
		t.Fatalf("race: %v", err)
	}

	nextSeq := map[string]int{}  // entrant → expected next seq
	flowEnds := map[string]int{} // entrant → flow_end count
	closed := map[string]bool{}  // entrant → flow_end seen
	verdicts := 0
	for i, ev := range rec.events {
		if ev.Type == scenario.EvRaceVerdict {
			verdicts++
			if ev.Entrant != "" {
				t.Fatalf("race_verdict is entrant-tagged: %+v", ev)
			}
			if i != len(rec.events)-1 {
				t.Fatalf("race_verdict at position %d, not last of %d", i, len(rec.events))
			}
			if ev.Winner != res.Verdicts[res.Winner].Name {
				t.Fatalf("verdict names winner %q, race picked %q", ev.Winner, res.Verdicts[res.Winner].Name)
			}
			if ev.Objective == nil || *ev.Objective != res.Verdicts[res.Winner].Objective {
				t.Fatalf("verdict objective %v, race posted %g", ev.Objective, res.Verdicts[res.Winner].Objective)
			}
			if ev.Detail != res.Objective {
				t.Fatalf("verdict detail %q, want objective key %q", ev.Detail, res.Objective)
			}
			continue
		}
		if ev.Entrant == "" {
			t.Fatalf("untagged flow event in merged stream: %+v", ev)
		}
		if closed[ev.Entrant] {
			t.Fatalf("entrant %s emitted after its flow_end: %+v", ev.Entrant, ev)
		}
		if want := nextSeq[ev.Entrant] + 1; ev.Seq != want {
			t.Fatalf("entrant %s seq %d, want %d (per-flow seq must be dense and monotonic)",
				ev.Entrant, ev.Seq, want)
		}
		nextSeq[ev.Entrant] = ev.Seq
		if ev.Type == scenario.EvFlowEnd {
			flowEnds[ev.Entrant]++
			closed[ev.Entrant] = true
			if ev.Detail != portfolio.StatusFinished {
				t.Fatalf("entrant %s flow_end detail %q, want finished", ev.Entrant, ev.Detail)
			}
		}
	}
	if verdicts != 1 {
		t.Fatalf("%d race_verdict records, want exactly 1", verdicts)
	}
	if len(flowEnds) != 4 {
		t.Fatalf("flow_end seen for %d entrants, want 4", len(flowEnds))
	}
	for name, n := range flowEnds {
		if n != 1 {
			t.Fatalf("entrant %s has %d flow_end records", name, n)
		}
	}
}

// TestRaceTraceDominatedAndFailed: entrants that never run (dominated
// before start) and entrants that fail still get exactly one flow_end
// each, tagged with their terminal status — no silent exits in the
// stream.
func TestRaceTraceDominatedAndFailed(t *testing.T) {
	base := baseDesign(t, 23)
	rec := &recorder{}
	hopeless := -1e18
	res, err := portfolio.Race(context.Background(), base, portfolio.Spec{
		Entrants: []portfolio.Entrant{
			{Name: "fast", Script: quickScript, Seed: 1},
			{Name: "broken", Script: failScript, Seed: 2},
			{Name: "victim", Script: stallScript, Seed: 3, Bound: &hopeless},
		},
		Workers: 1, // serial: fast finishes first, victim is skipped unstarted
		Trace:   rec,
	})
	if err != nil {
		t.Fatalf("traced race: %v", err)
	}
	if res.Winner != 0 {
		t.Fatalf("winner %d, want fast", res.Winner)
	}

	status := map[string]string{}
	ends := map[string]int{}
	verdicts := 0
	for _, ev := range rec.events {
		switch ev.Type {
		case scenario.EvRaceVerdict:
			verdicts++
		case scenario.EvFlowEnd:
			if ev.Entrant != "" {
				ends[ev.Entrant]++
				status[ev.Entrant] = ev.Detail
			}
		}
	}
	if verdicts != 1 {
		t.Fatalf("%d race_verdict records, want 1", verdicts)
	}
	want := map[string]string{
		"fast":   portfolio.StatusFinished,
		"broken": portfolio.StatusFailed,
		"victim": portfolio.StatusDominated,
	}
	for name, st := range want {
		if ends[name] != 1 {
			t.Fatalf("entrant %s: %d flow_end records, want 1", name, ends[name])
		}
		if status[name] != st {
			t.Fatalf("entrant %s flow_end detail %q, want %q", name, status[name], st)
		}
	}
}
