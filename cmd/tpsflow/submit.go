package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"tps"
	"tps/internal/serve"
)

// submitOpts carries the -submit client configuration.
type submitOpts struct {
	base         string // tpsd base URL
	flow         string // built-in flow when no -scenario
	scenarioFile string
	workers      int
	seed         int64
	makeDesign   func() (*tps.Design, error)
}

// runSubmit is the -submit client: it serializes the local design,
// posts a job to a tpsd server, streams the job's JSONL trace to
// stdout until the terminal flow_end record, and reports the job's
// final state. The exit status mirrors the remote flow's outcome.
func runSubmit(o submitOpts) error {
	scenarioText, err := flowResolver("")(o.flow, o.scenarioFile)
	if err != nil {
		return err
	}
	net, err := designText(o)
	if err != nil {
		return err
	}
	return submitAndStream(o.base, serve.SubmitRequest{
		Netlist:  net,
		Scenario: scenarioText,
		Workers:  o.workers,
		Seed:     o.seed,
	})
}

// runSubmitRace ships a portfolio race to the server: the locally
// resolved spec becomes the submission's entrant list, and the merged
// entrant-tagged trace streams back to stdout.
func runSubmitRace(o submitOpts, spec *tps.RaceSpec) error {
	net, err := designText(o)
	if err != nil {
		return err
	}
	req := serve.SubmitRequest{
		Netlist:     net,
		Workers:     o.workers,
		Objective:   spec.Objective,
		DeadlineSec: spec.Deadline.Seconds(),
	}
	for i := range spec.Entrants {
		e := &spec.Entrants[i]
		req.Entrants = append(req.Entrants, serve.RaceEntrant{
			Name: e.Name, Scenario: e.Script, Seed: e.Seed,
			Bound: e.Bound, Params: e.Params,
		})
	}
	return submitAndStream(o.base, req)
}

// runSubmitAutotune ships an autoflow search to the server: the locally
// resolved spec becomes the submission's Autotune block, and the
// variant-tagged trace streams back to stdout.
func runSubmitAutotune(o submitOpts, spec *tps.AutotuneSpec) error {
	net, err := designText(o)
	if err != nil {
		return err
	}
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
	return submitAndStream(o.base, serve.SubmitRequest{
		Netlist:  net,
		Workers:  o.workers,
		Autotune: a,
	})
}

// designText serializes the local design selection as .tpn.
func designText(o submitOpts) (string, error) {
	d, err := o.makeDesign()
	if err != nil {
		return "", err
	}
	var netBuf bytes.Buffer
	err = d.Save(&netBuf)
	d.Close()
	if err != nil {
		return "", err
	}
	return netBuf.String(), nil
}

// submitAndStream posts the job, streams its trace to stdout until the
// terminal flow_end, and reports the verdict.
func submitAndStream(baseURL string, req serve.SubmitRequest) error {
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
	switch info.State {
	case serve.JobDone:
		if a := info.Autotune; a != nil {
			// Deterministic winner line, mirroring the local -autotune
			// output so the two modes can be diffed.
			obj, base := 0.0, 0.0
			if a.WinnerObjective != nil {
				obj = *a.WinnerObjective
			}
			if a.BaseObjective != nil {
				base = *a.BaseObjective
			}
			fmt.Printf("AUTOTUNE winner=%s obj=%g baseline=%g gens=%d evaluated=%d\n",
				a.Winner, obj, base, a.Generations, a.Evaluated)
			fmt.Print(a.WinnerScript)
			return nil
		}
		if r := info.Race; r != nil {
			for _, v := range r.Verdicts {
				fmt.Fprintf(os.Stderr, "tpsflow:   %-12s seed=%-4d %-10s obj=%g\n",
					v.Name, v.Seed, v.Status, v.Objective)
			}
			if m := info.Metrics; m != nil {
				// Deterministic winner line, mirroring the local -portfolio
				// output so the two modes can be diffed.
				fmt.Printf("RACE winner=%s obj=%g slack=%.0fps cycle=%.0fps wire=%.0fµm\n",
					r.Winner, r.Verdicts[r.WinnerIndex].Objective, m.WorstSlack, m.CycleAchieved, m.SteinerWireUm)
			}
			return nil
		}
		if m := info.Metrics; m != nil {
			fmt.Fprintf(os.Stderr, "tpsflow: job %s done: slack=%.0fps cycle=%.0fps wire=%.0fµm\n",
				info.ID, m.WorstSlack, m.CycleAchieved, m.SteinerWireUm)
		}
		return nil
	default:
		return fmt.Errorf("job %s %s: %s", info.ID, info.State, info.Error)
	}
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
