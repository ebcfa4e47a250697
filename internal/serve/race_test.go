package serve_test

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"tps/internal/portfolio"
	"tps/internal/scenario"
	"tps/internal/serve"
)

// raceRequest builds an n-entrant race over the request-level default
// scenario (entrants without their own script inherit it).
func raceRequest(n int, script string) serve.SubmitRequest {
	req := serve.SubmitRequest{Scenario: script, Objective: "wire"}
	for i := 0; i < n; i++ {
		req.Entrants = append(req.Entrants, serve.RaceEntrant{Seed: int64(i + 1)})
	}
	return req
}

// TestRaceJobLifecycle: a race submission runs as one job. The merged
// trace carries one tagged flow per entrant (each closed by its own
// flow_end), one race_verdict, and the job-level terminal flow_end; the
// job's final metrics are the winner's.
func TestRaceJobLifecycle(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	resp, err := http.Post(base+"/designs?name=rd", "text/plain", strings.NewReader(tpnText(t, 31)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req := raceRequest(4, quickScript)
	req.Design = "rd"
	code, sub := submit(t, base, req)
	if code.StatusCode != http.StatusAccepted {
		t.Fatalf("submit race: %s", code.Status)
	}

	evs := readTrace(t, base, sub.JobID)
	entrantEnds := map[string]int{}
	verdicts := 0
	for _, ev := range evs {
		switch {
		case ev.Type == scenario.EvRaceVerdict:
			verdicts++
		case ev.Type == scenario.EvFlowEnd && ev.Entrant != "":
			entrantEnds[ev.Entrant]++
		}
	}
	if verdicts != 1 {
		t.Fatalf("%d race_verdict records in stream, want 1", verdicts)
	}
	if len(entrantEnds) != 4 {
		t.Fatalf("entrant flow_end for %d entrants, want 4 (%v)", len(entrantEnds), entrantEnds)
	}
	for name, n := range entrantEnds {
		if n != 1 {
			t.Fatalf("entrant %s: %d flow_end records", name, n)
		}
	}
	end := evs[len(evs)-1]
	if end.Type != scenario.EvFlowEnd || end.Entrant != "" || end.Err != "" {
		t.Fatalf("terminal event = %+v, want clean job-level flow_end", end)
	}

	info := waitState(t, base, sub.JobID, serve.JobDone)
	r := info.Race
	if r == nil {
		t.Fatalf("done race job has no race report: %+v", info)
	}
	if r.Objective != "wire" || len(r.Verdicts) != 4 {
		t.Fatalf("race report mismatch: %+v", r)
	}
	if r.WinnerIndex < 0 || r.WinnerIndex >= 4 || r.Winner != r.Verdicts[r.WinnerIndex].Name {
		t.Fatalf("winner fields inconsistent: %+v", r)
	}
	for _, v := range r.Verdicts {
		if v.Status != "finished" {
			t.Fatalf("entrant %s status %s", v.Name, v.Status)
		}
	}
	// The job adopts the winner's measurements: objective wire is
	// -SteinerWireUm of the posted metrics.
	if info.Metrics == nil || r.Verdicts[r.WinnerIndex].Objective != -info.Metrics.SteinerWireUm {
		t.Fatalf("job metrics are not the winner's: %+v vs %+v", info.Metrics, r.Verdicts[r.WinnerIndex])
	}
	// And the winner is the objective argmax over the verdict table.
	for _, v := range r.Verdicts {
		if v.Objective > r.Verdicts[r.WinnerIndex].Objective {
			t.Fatalf("verdict %s beats the declared winner: %+v", v.Name, r)
		}
	}
}

// TestRaceWarmDeterministic: the same race twice on a stored design
// yields the same winner and bit-identical metrics — races start from
// the upload-time snapshot like any warm re-run.
func TestRaceWarmDeterministic(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	resp, err := http.Post(base+"/designs?name=wr", "text/plain", strings.NewReader(tpnText(t, 37)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var runs [2]serve.JobInfo
	for i := range runs {
		req := raceRequest(3, quickScript)
		req.Design = "wr"
		_, sub := submit(t, base, req)
		runs[i] = waitState(t, base, sub.JobID, serve.JobDone)
		if runs[i].Race == nil {
			t.Fatalf("run %d: no race report", i)
		}
	}
	if runs[0].Race.Winner != runs[1].Race.Winner {
		t.Fatalf("warm race winners differ: %q vs %q", runs[0].Race.Winner, runs[1].Race.Winner)
	}
	a, b := *runs[0].Metrics, *runs[1].Metrics
	a.CPUSeconds, b.CPUSeconds = 0, 0
	if a != b {
		t.Fatalf("warm race metrics diverged:\n first %+v\n second %+v", a, b)
	}
}

// TestRaceCancelMidFlight: canceling a running race interrupts every
// entrant promptly, the job lands canceled with a flow_end that carries
// the error, and the stored design is rolled back — a later job on the
// same design still starts from the upload snapshot.
func TestRaceCancelMidFlight(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	resp, err := http.Post(base+"/designs?name=cx", "text/plain", strings.NewReader(tpnText(t, 41)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req := raceRequest(2, stallScript)
	req.Design = "cx"
	_, sub := submit(t, base, req)
	waitState(t, base, sub.JobID, serve.JobRunning)

	t0 := time.Now()
	cr, err := http.Post(base+"/jobs/"+sub.JobID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	info := waitState(t, base, sub.JobID, serve.JobCanceled)
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("race cancel took %v; entrants were not interrupted", el)
	}
	if info.Error == "" {
		t.Fatalf("canceled race carries no error: %+v", info)
	}
	evs := readTrace(t, base, sub.JobID)
	if end := evs[len(evs)-1]; end.Type != scenario.EvFlowEnd || end.Err == "" {
		t.Fatalf("terminal event = %+v, want flow_end with error", end)
	}

	// Rollback proof: a single-run job on the same stored design matches
	// the same flow on a fresh upload of the same netlist.
	_, s1 := submit(t, base, serve.SubmitRequest{Design: "cx", Scenario: quickScript})
	after := waitState(t, base, s1.JobID, serve.JobDone)
	resp, err = http.Post(base+"/designs?name=fresh", "text/plain", strings.NewReader(tpnText(t, 41)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, s2 := submit(t, base, serve.SubmitRequest{Design: "fresh", Scenario: quickScript})
	want := waitState(t, base, s2.JobID, serve.JobDone)
	am, wm := *after.Metrics, *want.Metrics
	am.CPUSeconds, wm.CPUSeconds = 0, 0
	if am != wm {
		t.Fatalf("canceled race leaked state into the stored design:\n after  %+v\n fresh  %+v", am, wm)
	}
}

// TestRaceDrain: shutdown during an in-flight race cancels it once the
// drain window lapses; the trace still terminates.
func TestRaceDrain(t *testing.T) {
	s, hs := newServer(t, serve.Config{Concurrency: 1})
	base := hs.URL
	req := raceRequest(2, stallScript)
	req.Netlist = tpnText(t, 43)
	_, sub := submit(t, base, req)
	waitState(t, base, sub.JobID, serve.JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatalf("shutdown returned nil though a stalled race outlived the drain window")
	}
	info := getJob(t, base, sub.JobID)
	if info.State != serve.JobCanceled {
		t.Fatalf("in-flight race state = %s, want canceled", info.State)
	}
	evs := readTrace(t, base, sub.JobID)
	if end := evs[len(evs)-1]; end.Type != scenario.EvFlowEnd {
		t.Fatalf("terminal event = %+v, want flow_end", end)
	}
}

// badRaceRequests are malformed race submissions; nl is a valid inline
// netlist.
func badRaceRequests(nl string) []serve.SubmitRequest {
	return []serve.SubmitRequest{
		// Unknown objective.
		func() serve.SubmitRequest {
			r := raceRequest(2, quickScript)
			r.Netlist, r.Objective = nl, "area"
			return r
		}(),
		// Duplicate entrant names.
		{Netlist: nl, Scenario: quickScript, Entrants: []serve.RaceEntrant{
			{Name: "x"}, {Name: "x"},
		}},
		// No scenario anywhere.
		{Netlist: nl, Entrants: []serve.RaceEntrant{{Name: "a"}}},
		// Entrant script that does not validate.
		{Netlist: nl, Entrants: []serve.RaceEntrant{
			{Name: "a", Scenario: "scenario x\ninit {\n  no_such_transform\n}\n"},
		}},
		// Negative deadline.
		func() serve.SubmitRequest {
			r := raceRequest(2, quickScript)
			r.Netlist, r.DeadlineSec = nl, -1
			return r
		}(),
		// More entrants than a race allows.
		func() serve.SubmitRequest {
			r := raceRequest(portfolio.MaxEntrants+1, quickScript)
			r.Netlist = nl
			return r
		}(),
	}
}

// TestRaceSubmitValidation: malformed race submissions bounce with 400
// before touching the queue.
func TestRaceSubmitValidation(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	for i, req := range badRaceRequests(tpnText(t, 47)) {
		resp, _ := submit(t, base, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %s, want 400", i, resp.Status)
		}
	}
	if n := len(listJobs(t, base)); n != 0 {
		t.Fatalf("%d jobs queued from invalid race submissions", n)
	}
}
