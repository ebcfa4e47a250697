package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"tps"
	"tps/internal/serve"
)

// raceRequest is the -submit job of a portfolio race: the locally
// resolved spec becomes the submission's entrant list.
func raceRequest(spec *tps.RaceSpec) serve.SubmitRequest {
	req := serve.SubmitRequest{Objective: spec.Objective, DeadlineSec: spec.Deadline.Seconds()}
	for i := range spec.Entrants {
		e := &spec.Entrants[i]
		req.Entrants = append(req.Entrants, serve.RaceEntrant{
			Name: e.Name, Scenario: e.Script, Seed: e.Seed,
			Bound: e.Bound, Params: e.Params,
		})
	}
	return req
}

// autotuneRequest is the -submit job of an autoflow search: the locally
// resolved spec becomes the submission's Autotune block.
func autotuneRequest(spec *tps.AutotuneSpec) serve.SubmitRequest {
	a := &serve.AutotuneRequest{
		Scenario:    spec.Script,
		Objective:   spec.Objective,
		Population:  spec.Population,
		Offspring:   spec.Offspring,
		Generations: spec.Generations,
		Stall:       spec.Stall,
		Seed:        spec.Seed,
		DeadlineSec: spec.Deadline.Seconds(),
		Freeze:      spec.Freeze,
		Insert:      spec.Insert,
		Params:      spec.Params,
	}
	if spec.Weights != (tps.MutationWeights{}) {
		w := spec.Weights
		a.Weights = &w
	}
	return serve.SubmitRequest{Autotune: a}
}

// submitJob is the -submit client of every mode: it serializes the
// local design into req as an inline .tpn netlist, asks for the -workers
// width, posts the job to a tpsd server, streams the job's JSONL trace
// to stdout until the terminal flow_end record, and prints the job's
// report. The exit status mirrors the remote job's outcome.
func submitJob(baseURL string, workers int, makeDesign func() (*tps.Design, error), req serve.SubmitRequest) error {
	d, err := makeDesign()
	if err != nil {
		return err
	}
	var net bytes.Buffer
	err = d.Save(&net)
	d.Close()
	if err != nil {
		return err
	}
	req.Netlist, req.Workers = net.String(), workers

	base := strings.TrimRight(baseURL, "/")
	client := &http.Client{} // no timeout: the trace stream is long-lived
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var sub serve.SubmitResponse
	if err := decodeOrError(resp, http.StatusAccepted, &sub); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(os.Stderr, "tpsflow: job %s accepted by %s\n", sub.JobID, base)

	// Stream the trace; the server ends it with flow_end.
	stream, err := client.Get(base + "/jobs/" + sub.JobID + "/trace")
	if err != nil {
		return fmt.Errorf("trace stream: %w", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fmt.Errorf("trace stream: unexpected status %s", stream.Status)
	}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawEnd := false
	for sc.Scan() {
		line := sc.Bytes()
		os.Stdout.Write(line)
		os.Stdout.Write([]byte{'\n'})
		var ev tps.TraceEvent
		if json.Unmarshal(line, &ev) == nil && ev.Type == tps.EvFlowEnd {
			sawEnd = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace stream: %w", err)
	}
	if !sawEnd {
		return fmt.Errorf("trace stream ended without a flow_end record")
	}

	// The stream's flow_end means the job is terminal; fetch the verdict.
	info, err := fetchJob(client, base, sub.JobID)
	if err != nil {
		return err
	}
	return reportJob(os.Stdout, os.Stderr, info)
}

// reportJob prints a terminal job's report with the printers the local
// modes use: the winner line (and a search's script) to out, the race
// verdict table or a plain flow's closing line to errw. A job that did
// not end done reports nothing and returns its error.
func reportJob(out, errw io.Writer, info serve.JobInfo) error {
	if info.State != serve.JobDone {
		return fmt.Errorf("job %s %s: %s", info.ID, info.State, info.Error)
	}
	switch m := info.Metrics; {
	case info.Race != nil:
		printRace(out, errw, info.Race, m)
	case info.Autotune != nil:
		printAutotune(out, info.Autotune)
	case m != nil:
		fmt.Fprintf(errw, "tpsflow: job %s done: slack=%.0fps cycle=%.0fps wire=%.0fµm\n",
			info.ID, m.WorstSlack, m.CycleAchieved, m.SteinerWireUm)
	}
	return nil
}

// fetchJob retries briefly: the job goes terminal the instant flow_end
// is emitted, but the state write happens just before, so one fetch is
// normally enough.
func fetchJob(client *http.Client, base, id string) (serve.JobInfo, error) {
	var info serve.JobInfo
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := client.Get(base + "/jobs/" + id)
		if err != nil {
			lastErr = err
		} else if err := decodeOrError(resp, http.StatusOK, &info); err != nil {
			lastErr = err
		} else {
			return info, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return info, fmt.Errorf("fetch job %s: %w", id, lastErr)
}

// decodeOrError decodes the expected JSON body, or surfaces the
// server's error envelope when the status differs.
func decodeOrError(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var e serve.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("unexpected status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
