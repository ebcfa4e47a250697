package serve_test

import (
	"net/http"
	"strings"
	"testing"

	"tps/internal/portfolio"
	"tps/internal/scenario"
	"tps/internal/serve"
)

// autotuneRequest builds a small search over the request-level default
// scenario.
func autotuneRequest(script string) serve.SubmitRequest {
	return serve.SubmitRequest{
		Scenario: script,
		Autotune: &serve.AutotuneRequest{
			Objective: "wire", Population: 2, Offspring: 3, Generations: 2, Seed: 5,
		},
	}
}

// TestAutotuneJobLifecycle: an autotune submission runs as one job. The
// stream carries each evaluated variant's tagged flow, one gen_summary
// per generation, exactly one autotune_verdict (and no inner
// race_verdict records), then the job-level terminal flow_end; the
// job's final metrics are the best variant's.
func TestAutotuneJobLifecycle(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	req := autotuneRequest(quickScript)
	req.Netlist = tpnText(t, 53)
	code, sub := submit(t, base, req)
	if code.StatusCode != http.StatusAccepted {
		t.Fatalf("submit autotune: %s", code.Status)
	}

	evs := readTrace(t, base, sub.JobID)
	variantEnds := map[string]int{}
	gens, verdicts, raceVerdicts := 0, 0, 0
	for _, ev := range evs {
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
		t.Fatalf("%d autotune_verdict records in stream, want 1", verdicts)
	}
	if raceVerdicts != 0 {
		t.Fatalf("%d race_verdict records leaked into the autotune stream", raceVerdicts)
	}
	end := evs[len(evs)-1]
	if end.Type != scenario.EvFlowEnd || end.Entrant != "" || end.Err != "" {
		t.Fatalf("terminal event = %+v, want clean job-level flow_end", end)
	}

	info := waitState(t, base, sub.JobID, serve.JobDone)
	a := info.Autotune
	if a == nil {
		t.Fatalf("done autotune job has no autotune report: %+v", info)
	}
	if a.Objective != "wire" || a.Generations != gens {
		t.Fatalf("autotune report mismatch (%d gen_summary records): %+v", gens, a)
	}
	if len(variantEnds) != a.Evaluated {
		t.Fatalf("flow_end for %d variants, report says %d evaluated (%v)",
			len(variantEnds), a.Evaluated, variantEnds)
	}
	if a.Winner == "" || a.WinnerScript == "" || a.WinnerObjective == nil {
		t.Fatalf("winner fields incomplete: %+v", a)
	}
	if _, err := scenario.Parse(a.WinnerScript); err != nil {
		t.Fatalf("winning script does not parse: %v", err)
	}
	if a.BaseObjective == nil || *a.WinnerObjective < *a.BaseObjective {
		t.Fatalf("winner %v lost to its own baseline %v", a.WinnerObjective, a.BaseObjective)
	}
	// The job adopts the best variant's measurements: objective wire is
	// -SteinerWireUm of the posted metrics.
	if info.Metrics == nil || *a.WinnerObjective != -info.Metrics.SteinerWireUm {
		t.Fatalf("job metrics are not the winner's: %+v vs %+v", info.Metrics, a)
	}
}

// TestAutotuneWarmDeterministic: the same search twice on a stored
// design yields the same winning script and bit-identical metrics —
// searches start from the upload-time snapshot like any warm re-run.
func TestAutotuneWarmDeterministic(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	resp, err := http.Post(base+"/designs?name=at", "text/plain", strings.NewReader(tpnText(t, 59)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var runs [2]serve.JobInfo
	for i := range runs {
		req := autotuneRequest(quickScript)
		req.Design = "at"
		_, sub := submit(t, base, req)
		runs[i] = waitState(t, base, sub.JobID, serve.JobDone)
		if runs[i].Autotune == nil {
			t.Fatalf("run %d: no autotune report", i)
		}
	}
	a, b := runs[0].Autotune, runs[1].Autotune
	if a.Winner != b.Winner || a.WinnerScript != b.WinnerScript || a.Evaluated != b.Evaluated {
		t.Fatalf("warm searches diverged:\n first %+v\n second %+v", a, b)
	}
	am, bm := *runs[0].Metrics, *runs[1].Metrics
	am.CPUSeconds, bm.CPUSeconds = 0, 0
	if am != bm {
		t.Fatalf("warm search metrics diverged:\n first %+v\n second %+v", am, bm)
	}
}

// badAutotuneRequests are malformed autotune submissions; nl is a valid
// inline netlist.
func badAutotuneRequests(nl string) []serve.SubmitRequest {
	with := func(mod func(*serve.SubmitRequest)) serve.SubmitRequest {
		r := autotuneRequest(quickScript)
		r.Netlist = nl
		mod(&r)
		return r
	}
	return []serve.SubmitRequest{
		// A job is a race or a search, not both.
		with(func(r *serve.SubmitRequest) {
			r.Entrants = []serve.RaceEntrant{{Name: "e"}}
		}),
		// No base scenario anywhere.
		with(func(r *serve.SubmitRequest) { r.Scenario = "" }),
		// Base scenario that does not validate.
		with(func(r *serve.SubmitRequest) {
			r.Scenario = "scenario x\ninit {\n  no_such_transform\n}\n"
		}),
		// Unknown objective.
		with(func(r *serve.SubmitRequest) { r.Autotune.Objective = "area" }),
		// Offspring beyond the race limit.
		with(func(r *serve.SubmitRequest) { r.Autotune.Offspring = portfolio.MaxEntrants }),
		// Negative deadline.
		with(func(r *serve.SubmitRequest) { r.Autotune.DeadlineSec = -1 }),
		// Unknown freeze / insert transforms.
		with(func(r *serve.SubmitRequest) { r.Autotune.Freeze = []string{"no_such"} }),
		with(func(r *serve.SubmitRequest) { r.Autotune.Insert = []string{"no_such"} }),
		// Malformed parameter domain (an enum needs values).
		with(func(r *serve.SubmitRequest) {
			r.Autotune.Params = []scenario.ParamDomain{{Key: "x", Kind: scenario.ParamEnum}}
		}),
		// Two domains for one parameter key.
		with(func(r *serve.SubmitRequest) {
			d := scenario.ParamDomain{Key: "budget", Kind: scenario.ParamInt, Lo: 1, Hi: 2}
			r.Autotune.Params = []scenario.ParamDomain{d, d}
		}),
	}
}

// TestAutotuneSubmitValidation: malformed autotune submissions bounce
// with 400 before touching the queue.
func TestAutotuneSubmitValidation(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	for i, req := range badAutotuneRequests(tpnText(t, 61)) {
		resp, _ := submit(t, base, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %s, want 400", i, resp.Status)
		}
	}
	if n := len(listJobs(t, base)); n != 0 {
		t.Fatalf("%d jobs queued from invalid autotune submissions", n)
	}
}
