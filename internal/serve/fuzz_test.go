package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tps/internal/serve"
)

// FuzzSubmitRequest drives POST /jobs with fuzzed bodies through
// Server.ServeHTTP on a server holding one small stored design, "d". No
// body may panic the handler. Every answer is 202 Accepted or a 4xx/503
// whose body decodes as the error JSON; an accepted job is canceled at
// once and must then reach a terminal state.
func FuzzSubmitRequest(f *testing.F) {
	nl := tpnText(f, 7)
	race := raceRequest(4, quickScript)
	race.Design = "d"
	tune := autotuneRequest(quickScript)
	tune.Design = "d"
	seeds := []serve.SubmitRequest{
		{Design: "d", Scenario: quickScript},
		{Design: "d", Scenario: topoScript, Workers: 2, Seed: 3},
		{Design: "d", Scenario: stallScript},
		{Design: "d", Scenario: boomScript},
		{Design: "d", Scenario: boomWorkerScript},
		{Netlist: nl, Scenario: quickScript},
		race, tune,
	}
	seeds = append(seeds, badSubmitRequests(nl)...)
	seeds = append(seeds, badRaceRequests(nl)...)
	seeds = append(seeds, badAutotuneRequests(nl)...)
	for _, r := range seeds {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range []string{``, `{`, `null`, `[]`, `{"design":"d","scenario":7}`} {
		f.Add([]byte(b))
	}

	s := serve.New(serve.Config{Concurrency: 1, Workers: 1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx) // an expired ctx cancels leftovers; fine in cleanup
	})
	if code, body := call(s, "POST", "/designs?name=d", []byte(nl)); code != http.StatusCreated {
		f.Fatalf("upload: %d %s", code, body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		code, resp := call(s, "POST", "/jobs", body)
		switch {
		case code == http.StatusAccepted:
			var sub serve.SubmitResponse
			if err := json.Unmarshal(resp, &sub); err != nil || sub.JobID == "" {
				t.Fatalf("202 with body %q", resp)
			}
			call(s, "POST", "/jobs/"+sub.JobID+"/cancel", nil)
			awaitTerminal(t, s, sub.JobID)
		case code >= 400 && code < 500, code == http.StatusServiceUnavailable:
			var e serve.ErrorResponse
			if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with body %q", code, resp)
			}
		default:
			t.Fatalf("status %d with body %q", code, resp)
		}
	})
}

// call sends one request straight to the server's handler.
func call(s *serve.Server, method, target string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// awaitTerminal polls job id until it is done, failed or canceled.
func awaitTerminal(t *testing.T, s *serve.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, body := call(s, "GET", "/jobs/"+id, nil)
		var info serve.JobInfo
		if err := json.Unmarshal(body, &info); code != http.StatusOK || err != nil {
			t.Fatalf("GET job %s: %d %s", id, code, body)
		}
		switch info.State {
		case serve.JobDone, serve.JobFailed, serve.JobCanceled:
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s 15 s after its cancel", id, info.State)
		}
		time.Sleep(time.Millisecond)
	}
}
