package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netio"
	"tps/internal/par"
	"tps/internal/scenario"
	"tps/internal/serve"

	// Register the full transform set (qplace, legalize, sync, …).
	_ "tps/internal/core"
)

// stall is the test's long-running transform: it blocks at a safe
// commit point until canceled (or a 3 s cap, so an assertion failure
// can't wedge the suite).
func init() {
	scenario.Register(scenario.Transform{
		Name: "stall", Doc: "test: block until canceled",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			deadline := time.Now().Add(3 * time.Second)
			for time.Now().Before(deadline) {
				if err := c.Interrupted(); err != nil {
					return scenario.Report{}, err
				}
				time.Sleep(5 * time.Millisecond)
			}
			return scenario.Report{}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "boom", Doc: "test: panic mid-flow",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			panic("deliberate job panic")
		},
	})
	scenario.Register(scenario.Transform{
		Name: "boom_worker", Doc: "test: panic on a par worker goroutine",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			par.For(4, 4*64, func(chunk, _, _ int) {
				if chunk == 3 {
					panic("deliberate job panic")
				}
			})
			return scenario.Report{}, nil
		},
	})
}

const quickScript = `
scenario quick
init {
  qplace
  legalize
  sync
  evaluate flow=serve
}
`

// topoScript edits topology on every run: buffer and clone add gates
// and nets, size_speed resizes.
const topoScript = `
scenario topo
set budget 16
init {
  qplace
  legalize
  mode m=actual
  size_speed
  buffer
  clone
  legalize
  evaluate flow=serve
}
`

const stallScript = `
scenario stuck
init {
  stall
}
`

// boomScript panics after the design has been placed.
const boomScript = `
scenario boom
init {
  qplace
  boom
}
`

// boomWorkerScript panics on a goroutine a transform forked through par.
const boomWorkerScript = `
scenario boom_worker
init {
  qplace
  boom_worker
}
`

func tpnText(t testing.TB, seed int64) string {
	t.Helper()
	p, err := gen.Des(1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = seed
	gd := gen.Generate(cell.Default(), p)
	var buf bytes.Buffer
	if err := netio.Write(&buf, gd); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// newServer boots a service inside an httptest server and tears both
// down (canceling whatever is still running) when the test ends.
func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx) // expired ctx cancels leftovers; fine in cleanup
		hs.Close()
	})
	return s, hs
}

func submit(t *testing.T, base string, req serve.SubmitRequest) (*http.Response, serve.SubmitResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub serve.SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, sub
}

func getJob(t *testing.T, base, id string) serve.JobInfo {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %s", id, resp.Status)
	}
	var info serve.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func waitState(t *testing.T, base, id string, want ...string) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		info := getJob(t, base, id)
		for _, w := range want {
			if info.State == w {
				return info
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v (last: %s)", id, want, getJob(t, base, id).State)
	return serve.JobInfo{}
}

// readTrace consumes the job's trace stream to its end and returns the
// parsed events.
func readTrace(t *testing.T, base, id string) []scenario.Event {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace %s: %s", id, resp.Status)
	}
	var evs []scenario.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e scenario.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func findEvent(evs []scenario.Event, typ scenario.EventType) *scenario.Event {
	for i := range evs {
		if evs[i].Type == typ {
			return &evs[i]
		}
	}
	return nil
}

// The full happy path: upload a design, submit a job against it by
// name, stream the live trace to its terminal flow_end, and read the
// final metrics.
func TestJobLifecycle(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL

	resp, err := http.Post(base+"/designs?name=d1", "text/plain", strings.NewReader(tpnText(t, 7)))
	if err != nil {
		t.Fatal(err)
	}
	var di serve.DesignInfo
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&di); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if di.Name != "d1" || di.Gates == 0 {
		t.Fatalf("upload info: %+v", di)
	}

	code, sub := submit(t, base, serve.SubmitRequest{Design: "d1", Scenario: quickScript})
	if code.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", code.Status)
	}

	// The trace stream blocks until the job finishes and must end with
	// the embedder's flow_end record.
	evs := readTrace(t, base, sub.JobID)
	if findEvent(evs, scenario.EvScenarioBegin) == nil {
		t.Fatalf("no scenario_begin in trace (%d events)", len(evs))
	}
	if findEvent(evs, scenario.EvScenarioEnd) == nil {
		t.Fatalf("no scenario_end in trace")
	}
	end := evs[len(evs)-1]
	if end.Type != scenario.EvFlowEnd || end.Err != "" {
		t.Fatalf("terminal event = %+v, want clean flow_end", end)
	}

	info := waitState(t, base, sub.JobID, serve.JobDone)
	if info.Metrics == nil || info.Metrics.ICells == 0 {
		t.Fatalf("done without metrics: %+v", info)
	}
	if info.Workers < 1 {
		t.Fatalf("granted workers = %d, want >= 1", info.Workers)
	}

	// A late reader replays the finished trace including flow_end.
	again := readTrace(t, base, sub.JobID)
	if len(again) != len(evs) {
		t.Fatalf("replayed trace has %d events, live stream had %d", len(again), len(evs))
	}
}

// An inline .tpn submission runs without a prior upload.
func TestInlineNetlistSubmit(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	code, sub := submit(t, hs.URL, serve.SubmitRequest{Netlist: tpnText(t, 8), Scenario: quickScript})
	if code.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", code.Status)
	}
	info := waitState(t, hs.URL, sub.JobID, serve.JobDone)
	if info.Metrics == nil {
		t.Fatalf("no metrics: %+v", info)
	}
}

// Warm re-runs on a stored design start from the upload-time snapshot:
// three runs of the same scenario, and an inline submit of the same
// text, must post bit-identical metrics — also when the flow adds and
// resizes gates (topoScript).
func TestWarmRerunDeterministic(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	text := tpnText(t, 9)
	resp, err := http.Post(base+"/designs?name=warm", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var cells []int
	for _, script := range []string{quickScript, topoScript} {
		var first scenario.Metrics
		for i := 0; i < 4; i++ {
			req := serve.SubmitRequest{Design: "warm", Scenario: script}
			if i == 3 {
				req = serve.SubmitRequest{Netlist: text, Scenario: script}
			}
			_, sub := submit(t, base, req)
			info := waitState(t, base, sub.JobID, serve.JobDone)
			if info.Metrics == nil {
				t.Fatalf("run %d: no metrics", i)
			}
			m := *info.Metrics
			m.CPUSeconds = 0
			if i == 0 {
				first = m
				cells = append(cells, m.ICells)
			} else if m != first {
				t.Fatalf("run %d (inline=%v) diverged from the first:\n first %+v\n run   %+v", i, i == 3, first, m)
			}
		}
	}
	if cells[1] <= cells[0] {
		t.Fatalf("topology script left %d cells (plain flow %d); it must add gates", cells[1], cells[0])
	}
}

// repeatReader streams its text over and over without end.
type repeatReader string

func (r repeatReader) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		n += copy(p[n:], r)
	}
	return len(p), nil
}

// An upload over the 64 MiB body limit is answered 413 and stores
// nothing. The body is comment lines, so every line-boundary prefix of
// it is a valid .tpn that a truncating server would store.
func TestOversizeUploadRejected(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	const limit = 64 << 20

	resp, err := http.Post(base+"/designs?name=big", "text/plain",
		io.LimitReader(repeatReader(strings.Repeat("#\n", 2048)), limit+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload: %s, want 413", resp.Status)
	}
	dr, err := http.Get(base + "/designs")
	if err != nil {
		t.Fatal(err)
	}
	var designs []serve.DesignInfo
	if err := json.NewDecoder(dr.Body).Decode(&designs); err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if len(designs) != 0 {
		t.Fatalf("oversize upload stored %+v", designs)
	}
}

// A full queue sheds load with 429 instead of buffering without bound.
func TestQueueBackpressure(t *testing.T) {
	_, hs := newServer(t, serve.Config{Concurrency: 1, QueueDepth: 1})
	base := hs.URL
	nl := tpnText(t, 10)

	var ids []string
	got429 := false
	for i := 0; i < 4; i++ {
		resp, sub := submit(t, base, serve.SubmitRequest{Netlist: nl, Scenario: stallScript})
		switch resp.StatusCode {
		case http.StatusAccepted:
			ids = append(ids, sub.JobID)
		case http.StatusTooManyRequests:
			got429 = true
		default:
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
	}
	if !got429 {
		t.Fatalf("no 429 from %d submissions into a depth-1 queue", 4)
	}
	if len(ids) == 0 {
		t.Fatalf("every submission was rejected")
	}
	// Unstick the workers so cleanup is fast.
	for _, id := range ids {
		resp, err := http.Post(base+"/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, id := range ids {
		waitState(t, base, id, serve.JobCanceled, serve.JobDone)
	}
}

// Cancel aborts a running job at the next safe commit point; the trace
// terminates with a flow_end carrying the cancellation error.
func TestCancelRunningJob(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	_, sub := submit(t, base, serve.SubmitRequest{Netlist: tpnText(t, 11), Scenario: stallScript})
	waitState(t, base, sub.JobID, serve.JobRunning)

	t0 := time.Now()
	resp, err := http.Post(base+"/jobs/"+sub.JobID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	info := waitState(t, base, sub.JobID, serve.JobCanceled)
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("cancel took %v", el)
	}
	if info.Error == "" {
		t.Fatalf("canceled job carries no error text: %+v", info)
	}
	evs := readTrace(t, base, sub.JobID)
	end := evs[len(evs)-1]
	if end.Type != scenario.EvFlowEnd || end.Err == "" {
		t.Fatalf("terminal event = %+v, want flow_end with error", end)
	}
}

// Graceful shutdown rejects new work immediately and, once the drain
// window expires, cancels in-flight jobs instead of hanging.
func TestShutdownCancelsInFlight(t *testing.T) {
	s, hs := newServer(t, serve.Config{Concurrency: 1})
	base := hs.URL
	_, sub := submit(t, base, serve.SubmitRequest{Netlist: tpnText(t, 12), Scenario: stallScript})
	waitState(t, base, sub.JobID, serve.JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(ctx) }()

	// Draining starts synchronously: new submissions bounce with 503.
	time.Sleep(20 * time.Millisecond)
	resp, _ := submit(t, base, serve.SubmitRequest{Netlist: tpnText(t, 12), Scenario: quickScript})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %s, want 503", resp.Status)
	}

	if err := <-shutdownErr; err == nil {
		t.Fatalf("shutdown returned nil though the stalled job outlived the drain window")
	}
	info := getJob(t, base, sub.JobID)
	if info.State != serve.JobCanceled {
		t.Fatalf("in-flight job state = %s, want canceled", info.State)
	}
	evs := readTrace(t, base, sub.JobID)
	if end := evs[len(evs)-1]; end.Type != scenario.EvFlowEnd {
		t.Fatalf("terminal event = %+v, want flow_end", end)
	}
}

// Two jobs run simultaneously and both land; per-design determinism is
// unaffected by the other job in flight.
func TestConcurrentJobs(t *testing.T) {
	_, hs := newServer(t, serve.Config{Concurrency: 2})
	base := hs.URL
	var subs [2]serve.SubmitResponse
	for i := range subs {
		code, sub := submit(t, base, serve.SubmitRequest{
			Netlist:  tpnText(t, 20+int64(i)),
			Scenario: quickScript,
			Seed:     int64(i + 1),
		})
		if code.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, code.Status)
		}
		subs[i] = sub
	}
	for i, sub := range subs {
		info := waitState(t, base, sub.JobID, serve.JobDone)
		if info.Metrics == nil || info.Metrics.ICells == 0 {
			t.Fatalf("job %d: bad metrics %+v", i, info)
		}
	}
}

// A job queued behind another job on its stored design takes its worker
// grant only when its turn comes: while the first job holds the whole
// budget, the second holds no grant, and once the first ends the second
// runs at the full width instead of the one-worker floor.
func TestGrantWaitsForDesignTurn(t *testing.T) {
	_, hs := newServer(t, serve.Config{Concurrency: 2, Workers: 2})
	base := hs.URL
	resp, err := http.Post(base+"/designs?name=turn", "text/plain", strings.NewReader(tpnText(t, 13)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	_, first := submit(t, base, serve.SubmitRequest{Design: "turn", Scenario: stallScript})
	deadline := time.Now().Add(15 * time.Second)
	for getJob(t, base, first.JobID).Workers != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("first job never held the whole budget: %+v", getJob(t, base, first.JobID))
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, second := submit(t, base, serve.SubmitRequest{Design: "turn", Scenario: quickScript})
	waitState(t, base, second.JobID, serve.JobRunning)
	// The second job is running but waits for the design; it must not
	// take a grant meanwhile.
	for i := 0; i < 20; i++ {
		if w := getJob(t, base, second.JobID).Workers; w != 0 {
			t.Fatalf("second job granted %d workers while the first held its design", w)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err = http.Post(base+"/jobs/"+first.JobID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, base, first.JobID, serve.JobCanceled, serve.JobDone) // done if its stall ran out
	if info := waitState(t, base, second.JobID, serve.JobDone); info.Workers != 2 {
		t.Fatalf("second job ran at width %d after the first ended, want 2", info.Workers)
	}
}

// badSubmitRequests are malformed plain submissions; nl is a valid
// inline netlist.
func badSubmitRequests(nl string) []serve.SubmitRequest {
	return []serve.SubmitRequest{
		{},                      // nothing
		{Scenario: quickScript}, // no design
		{Netlist: "bogus", Scenario: quickScript},                         // unparseable netlist
		{Netlist: nl, Scenario: "scenario x\ninit { no_such_transform }"}, // unknown transform
		{Design: "ghost", Scenario: quickScript},                          // unknown stored design
	}
}

// Malformed submissions are rejected with 400s, not queued.
func TestSubmitValidation(t *testing.T) {
	_, hs := newServer(t, serve.Config{})
	base := hs.URL
	for i, req := range badSubmitRequests(tpnText(t, 1)) {
		resp, _ := submit(t, base, req)
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("case %d: status %s, want 400/404", i, resp.Status)
		}
	}
	if n := len(listJobs(t, base)); n != 0 {
		t.Fatalf("%d jobs queued from invalid submissions", n)
	}
}

func listJobs(t *testing.T, base string) []serve.JobInfo {
	t.Helper()
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []serve.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	return infos
}

var _ = fmt.Sprintf // keep fmt for debug edits

// A panicking transform fails its own job — state failed, the panic
// value and stack in the job error and in the terminal flow_end — for a
// plain job, a panic on a par worker goroutine and a race alike, and the
// single worker goes on to run the next job to completion.
func TestPanickingJobFailsAlone(t *testing.T) {
	_, hs := newServer(t, serve.Config{Concurrency: 1})
	base := hs.URL
	hasPanic := func(s string) bool {
		return strings.Contains(s, "panic: deliberate job panic") && strings.Contains(s, "goroutine ")
	}

	for i, script := range []string{boomScript, boomWorkerScript} {
		_, sub := submit(t, base, serve.SubmitRequest{Netlist: tpnText(t, 41), Scenario: script})
		info := waitState(t, base, sub.JobID, serve.JobFailed, serve.JobDone, serve.JobCanceled)
		if info.State != serve.JobFailed || !hasPanic(info.Error) {
			t.Fatalf("panicking job %d: state %s error %q, want failed with panic value and stack", i, info.State, info.Error)
		}
		evs := readTrace(t, base, sub.JobID)
		if end := evs[len(evs)-1]; end.Type != scenario.EvFlowEnd || !hasPanic(end.Err) {
			t.Fatalf("job %d terminal event = %+v, want flow_end carrying the panic", i, end)
		}
	}

	req := raceRequest(2, boomScript)
	req.Netlist = tpnText(t, 42)
	_, sub := submit(t, base, req)
	info := waitState(t, base, sub.JobID, serve.JobFailed, serve.JobDone, serve.JobCanceled)
	if info.State != serve.JobFailed || info.Race == nil {
		t.Fatalf("panicking race: state %s race %+v, want failed with a race report", info.State, info.Race)
	}
	for _, v := range info.Race.Verdicts {
		if v.Status != "failed" || !hasPanic(v.Error) {
			t.Fatalf("entrant %s: status %s error %q, want failed with the panic", v.Name, v.Status, v.Error)
		}
	}
	ends := 0
	for _, ev := range readTrace(t, base, sub.JobID) {
		if ev.Type == scenario.EvFlowEnd && ev.Entrant != "" {
			ends++
			if !hasPanic(ev.Err) {
				t.Fatalf("entrant %s flow_end = %+v, want the panic", ev.Entrant, ev)
			}
		}
	}
	if ends != 2 {
		t.Fatalf("%d entrant flow_end records, want 2", ends)
	}

	_, sub = submit(t, base, serve.SubmitRequest{Netlist: tpnText(t, 43), Scenario: quickScript})
	if info := waitState(t, base, sub.JobID, serve.JobDone, serve.JobFailed); info.State != serve.JobDone || info.Metrics == nil {
		t.Fatalf("job after the panics: state %s error %q, want done", info.State, info.Error)
	}
}
