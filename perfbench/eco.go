package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tps"
	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netio"
	"tps/internal/portfolio"
	"tps/internal/scenario"
	"tps/internal/serve"
)

// checkpointScript places and sizes the tpsd_eco checkpoint: a 0→100
// min-cut placement, then discretization to real sizes BEFORE
// legalization (the reverse order leaves row overlaps behind).
const checkpointScript = `scenario checkpoint
set step 100
init {
  mode m=gain
  assign_gains gain=4
}
status {
  partition reflow=1
}
final {
  spread
  bindim0
  discretize_actual
  legalize
  evaluate flow=checkpoint
}
`

// ecoScript is every race entrant's flow: a short protected ECO on the
// placed checkpoint. Each protected step is rolled back if it worsens
// worst slack.
const ecoScript = `scenario eco
set budget 32
init {
  mode m=actual
  size_speed protect tol=0
  buffer protect tol=0
  pinswap protect tol=0
  legalize
  evaluate flow=eco
}
`

// ckptName is the checkpoint's name in the server's design store.
const ckptName = "ckpt"

// ecoWorkload drives an in-process tpsd server over loopback HTTP.
type ecoWorkload struct {
	// design is the pinned checkpoint design; the workload seed drives
	// the jobs.
	design gen.Params
	// clients is the number of closed-loop clients; minJobs the fewest
	// jobs a run completes, so job_latency_p90_s has ten samples above it.
	clients int
	minJobs int
}

// ecoEntrants returns job j's two race entrants. Their seeds and their
// size_speed margin and transform budget are drawn from the workload
// seed, so every job is different and every seed reproduces its jobs.
func ecoEntrants(seed int64, j int) []serve.RaceEntrant {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(j)))
	es := make([]serve.RaceEntrant, 2)
	for k := range es {
		es[k] = serve.RaceEntrant{
			Name: fmt.Sprintf("e%d", k),
			Seed: rng.Int63n(1<<30) + 1,
			Params: map[string]string{
				"budget": strconv.Itoa(8 + 4*rng.Intn(3)),
				"margin": strconv.Itoa(40 + 20*rng.Intn(3)),
			},
		}
	}
	return es
}

// ecoJob is one finished job as the client saw it.
type ecoJob struct {
	latency   float64 // s, submit → terminal flow_end
	queueWait float64 // ms, server QueuedAt → StartedAt
	run       float64 // ms, server StartedAt → FinishedAt
	entrantMs []float64
	accepts   int
	rejects   int
	forks     int
	index     int
	winner    string
	m         scenario.Metrics
}

// errRejected marks a submission the server refused with 429.
var errRejected = errors.New("job rejected: queue full (429)")

// ecoServer is the in-process server and its loopback listener.
type ecoServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
	http *http.Client
}

func startServer() (*ecoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &ecoServer{
		srv:  serve.New(serve.Config{}),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener, drains the job queue and waits for the
// serving goroutine to return.
func (s *ecoServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.http.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	if e := s.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.done; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	return err
}

// upload stores the checkpoint text under ckptName.
func (s *ecoServer) upload(ctx context.Context, text string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/designs?name="+ckptName, strings.NewReader(text))
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("upload: %s", resp.Status)
	}
	return nil
}

// checkpoint generates the design, places and sizes it, checks the
// placement is legal and returns the design with its .tpn text.
func (w ecoWorkload) checkpoint(ctx context.Context) (*tps.Design, string, error) {
	d := tps.NewDesign(w.design)
	d.SetWorkers(benchWorkers)
	sc, err := tps.ParseScenario(checkpointScript)
	if err == nil {
		err = guarded(func() error {
			_, err := d.RunScenarioContext(ctx, sc)
			return err
		})
	}
	if err == nil {
		err = d.CheckLegal()
	}
	var buf bytes.Buffer
	if err == nil {
		err = d.Save(&buf)
	}
	if err != nil {
		d.Close()
		return nil, "", fmt.Errorf("checkpoint: %w", err)
	}
	return d, buf.String(), nil
}

// job submits job j, reads its trace to the terminal flow_end, fetches
// its final state and checks both. tr, if non-nil, receives the
// stream's spans.
func (s *ecoServer) job(ctx context.Context, seed int64, j int, tr *streamSpans) (ecoJob, error) {
	entrants := ecoEntrants(seed, j)
	body, err := json.Marshal(serve.SubmitRequest{
		Design: ckptName, Scenario: ecoScript, Workers: 1, Seed: 1, Entrants: entrants,
	})
	if err != nil {
		return ecoJob{}, err
	}
	t0 := time.Now()
	var sub serve.SubmitResponse
	if err := s.call(ctx, http.MethodPost, "/jobs", body, http.StatusAccepted, &sub); err != nil {
		return ecoJob{}, err
	}
	if tr != nil {
		tr.begin(j, t0)
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/jobs/"+sub.JobID+"/trace", nil)
	if err != nil {
		return ecoJob{}, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return ecoJob{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ecoJob{}, fmt.Errorf("trace %s: %s", sub.JobID, resp.Status)
	}
	var rec ecoJob
	flowEnds := map[string]int{}
	verdicts, terminal, after := 0, 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		now := time.Now()
		var ev scenario.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return ecoJob{}, fmt.Errorf("trace %s: %w", sub.JobID, err)
		}
		if terminal > 0 {
			after++
		}
		switch {
		case ev.Type == scenario.EvFlowEnd && ev.Entrant == "":
			terminal++
			rec.latency = now.Sub(t0).Seconds()
			if ev.Err != "" {
				return ecoJob{}, fmt.Errorf("job %s ended with %q", sub.JobID, ev.Err)
			}
		case ev.Type == scenario.EvFlowEnd:
			flowEnds[ev.Entrant]++
		case ev.Type == scenario.EvRaceVerdict:
			verdicts++
		case ev.Type == scenario.EvScenarioBegin:
			rec.forks++
		}
		if tr != nil && ev.Entrant != "" {
			tr.event(ev, now)
		}
	}
	if err := sc.Err(); err != nil {
		return ecoJob{}, fmt.Errorf("trace %s: %w", sub.JobID, err)
	}
	if tr != nil {
		tr.end(time.Now())
	}
	if terminal != 1 || after != 0 || verdicts != 1 || len(flowEnds) != len(entrants) {
		return ecoJob{}, fmt.Errorf("job %s: stream shape: %d terminal flow_end (%d records after), %d race_verdict, entrant flow_ends %v",
			sub.JobID, terminal, after, verdicts, flowEnds)
	}
	for _, e := range entrants {
		if flowEnds[e.Name] != 1 {
			return ecoJob{}, fmt.Errorf("job %s: entrant %s has %d flow_end records", sub.JobID, e.Name, flowEnds[e.Name])
		}
	}

	var info serve.JobInfo
	if err := s.call(ctx, http.MethodGet, "/jobs/"+sub.JobID, nil, http.StatusOK, &info); err != nil {
		return ecoJob{}, err
	}
	if err := checkJob(info, len(entrants)); err != nil {
		return ecoJob{}, err
	}
	rec.queueWait = ms(info.StartedAt.Sub(info.QueuedAt))
	rec.run = ms(info.FinishedAt.Sub(*info.StartedAt))
	for _, v := range info.Race.Verdicts {
		rec.entrantMs = append(rec.entrantMs, v.DurMs)
		rec.accepts += v.Accepts
		rec.rejects += v.Rejects
	}
	rec.winner = info.Race.Winner
	rec.m = *info.Metrics
	return rec, nil
}

// checkJob requires a finished race whose every entrant finished and
// whose winner's metrics are sane.
func checkJob(info serve.JobInfo, entrants int) error {
	if info.State != serve.JobDone {
		return fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	if info.Metrics == nil || info.Race == nil || info.StartedAt == nil || info.FinishedAt == nil {
		return fmt.Errorf("job %s: done without metrics, race summary or timestamps", info.ID)
	}
	if len(info.Race.Verdicts) != entrants || info.Race.Winner == "" {
		return fmt.Errorf("job %s: %d verdicts, winner %q", info.ID, len(info.Race.Verdicts), info.Race.Winner)
	}
	for _, v := range info.Race.Verdicts {
		if v.Status != portfolio.StatusFinished {
			return fmt.Errorf("job %s: entrant %s %s: %s", info.ID, v.Name, v.Status, v.Error)
		}
	}
	return checkMetrics(*info.Metrics)
}

// call sends one JSON request and decodes the reply, mapping 429 to
// errRejected.
func (s *ecoServer) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case want:
		return json.NewDecoder(resp.Body).Decode(out)
	case http.StatusTooManyRequests:
		return errRejected
	default:
		var e serve.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s %s: %s %s", method, path, resp.Status, e.Error)
	}
}

// ecoPhase is one closed-loop job phase's results.
type ecoPhase struct {
	jobs     []ecoJob
	started  int // job numbers first … first+started-1 ran
	rejected int
	region   time.Duration
}

// jobs runs the closed loop: each client submits its next job only when
// the previous one has ended, until the budget has passed and at least
// minJobs jobs were started. Job numbers start at first.
func (w ecoWorkload) jobs(ctx context.Context, s *ecoServer, cfg config, out *outcome, budget time.Duration, minJobs, first int, tr *recorder, root int) ecoPhase {
	var (
		mu    sync.Mutex
		ph    ecoPhase
		next  atomic.Int64
		wg    sync.WaitGroup
		start = time.Now()
		last  = start
	)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				n := int(next.Add(1) - 1)
				if n >= minJobs && time.Since(start) >= budget {
					return
				}
				var ss *streamSpans
				if tr != nil {
					ss = &streamSpans{rec: tr, parent: root}
				}
				rec, err := s.job(ctx, cfg.seed, first+n, ss)
				rec.index = n
				mu.Lock()
				out.attempted++
				ph.started++
				switch {
				case errors.Is(err, errRejected):
					ph.rejected++
					out.fail(err)
				case err != nil:
					out.fail(err)
				default:
					ph.jobs = append(ph.jobs, rec)
					last = time.Now()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.region = last.Sub(start)
	return ph
}

// run measures the workload: ckptReps timed checkpoint set-ups, then
// the closed-loop job phase. A traced run splits the budget and the job
// minimum between an untraced and a traced phase.
func (w ecoWorkload) run(ctx context.Context, cfg config) (out *outcome, err error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	defer func() {
		if e := s.stop(); e != nil && err == nil {
			err = fmt.Errorf("server shutdown: %w", e)
		}
	}()

	out = newOutcome()
	var setups []float64
	var ckpt *tps.Design
	var text string
	for i := 0; i < ckptReps; i++ {
		t0 := time.Now()
		d, t, err := w.checkpoint(ctx)
		if err == nil {
			err = s.upload(ctx, t)
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ckpt != nil {
			ckpt.Close()
		}
		ckpt, text = d, t
	}
	defer ckpt.Close()
	out.e2e["setup_s"] = median(setups)

	budget, minJobs := cfg.budget(), w.minJobs
	if cfg.trace {
		budget, minJobs = budget/2, minJobs/2
	}
	plain := w.jobs(ctx, s, cfg, out, budget, minJobs, 0, nil, 0)
	if len(plain.jobs) == 0 {
		return out, nil
	}
	lat := make([]float64, len(plain.jobs))
	runs := make([]float64, len(plain.jobs))
	var cyc, tns, area, wire []float64
	for i, j := range plain.jobs {
		lat[i], runs[i] = j.latency, j.run/1000
		// QoR averages the first minJobs jobs only, which every run
		// completes, so it is exact for a seed however many jobs fit.
		if j.index < minJobs {
			cyc = append(cyc, j.m.CycleAchieved)
			tns = append(tns, -j.m.TNS)
			area = append(area, j.m.AreaUm2)
			wire = append(wire, j.m.SteinerWireUm)
		}
	}
	out.e2e["wall_s"] = median(runs)
	out.e2e["job_latency_p50_s"] = median(lat)
	out.e2e["job_latency_p90_s"] = percentile(lat, 90)
	out.e2e["jobs_per_s"] = float64(len(plain.jobs)) / plain.region.Seconds()
	out.e2e["cycle_ps"] = mean(cyc)
	out.e2e["tns_ps"] = mean(tns)
	out.e2e["area_um2"] = mean(area)
	out.e2e["steiner_wire_um"] = mean(wire)
	if !cfg.trace {
		return out, nil
	}
	return out, w.traced(ctx, s, cfg, out, budget, minJobs, plain.started, median(lat), ckpt, text)
}

// traced runs the traced job phase and the out-of-band probes, and fills
// the per-layer metrics. Layer times come from the job streams; analyzer
// counters, which the stream does not carry, come from replaying the
// first traced job's entrants in process with a counting tracer.
func (w ecoWorkload) traced(ctx context.Context, s *ecoServer, cfg config, out *outcome, budget time.Duration, minJobs, first int, plainP50 float64, ckpt *tps.Design, text string) error {
	rec := newRecorder()
	root := rec.open(0, "workload", cfg.workload, 0, "", rec.t0)
	ph := w.jobs(ctx, s, cfg, out, budget, minJobs, first, rec, root)
	if len(ph.jobs) == 0 {
		return fmt.Errorf("no traced job finished")
	}
	sums := values{}
	var lat, entrantMs []float64
	for _, j := range ph.jobs {
		lat = append(lat, j.latency)
		entrantMs = append(entrantMs, j.entrantMs...)
		entrants := 0.0
		for _, d := range j.entrantMs {
			entrants += d
		}
		sums["portfolio.overhead_ms"] += j.run - entrants
		sums["serve.queue_wait_ms"] += j.queueWait
		sums["serve.run_ms"] += j.run
		sums["serve.overhead_ms"] += j.latency*1000 - j.run
		sums["scenario.protect_accepts"] += float64(j.accepts)
		sums["scenario.protect_rejects"] += float64(j.rejects)
		sums["netio.forks_per_job"] += float64(j.forks)
	}
	v := out.layers
	for k, x := range sums {
		v[k] = x / float64(len(ph.jobs))
	}
	v["portfolio.entrant_ms"] = mean(entrantMs)
	v["serve.rejected"] = float64(ph.rejected)
	if plainP50 > 0 {
		v["trace_overhead"] = median(lat) / plainP50
	}
	rec.close(root, time.Now(), nil)
	// Stream step spans carry no counters; the replay sets those.
	addStepLayers(v, rec.snapshot(), len(ph.jobs))
	if err := w.replay(ctx, cfg, text, first, rec, v); err != nil {
		return err
	}
	if err := netioProbe(ckpt, text, v); err != nil {
		return err
	}
	cold, err := coldEvalMs(text, 1)
	if err != nil {
		return err
	}
	v["scenario.cold_eval_ms"] = cold
	out.spans = rec
	return nil
}

// replay reruns job j's entrants in process exactly as a race runs
// them (fresh parse of the checkpoint, serial analyzers, the entrant's
// seed and params) under a counting tracer, and adds one job's analyzer
// counters, step-layer counters and interpreter overhead to v. The
// first entrant's final design then feeds the analyzer probe.
func (w ecoWorkload) replay(ctx context.Context, cfg config, text string, j int, rec *recorder, v values) error {
	js := rec.open(0, "job", "replay", -1, "", time.Now())
	var probe *scenario.Context
	defer func() {
		if probe != nil {
			probe.Close()
		}
	}()
	for _, e := range ecoEntrants(cfg.seed, j) {
		gd, err := netio.Read(strings.NewReader(text), cell.Default())
		if err != nil {
			return err
		}
		c := scenario.NewContext(gd, e.Seed)
		c.SetWorkers(1)
		c.Params = map[string]string{}
		for k, val := range e.Params {
			c.Params[k] = val
		}
		sc, err := scenario.Parse(ecoScript)
		if err != nil {
			c.Close()
			return err
		}
		c.Trace = newFlowTracer(rec, c.AnalyzerStats, -1, e.Name, js)
		err = guarded(func() error {
			_, err := scenario.RunContext(ctx, c, sc)
			return err
		})
		c.Trace = nil
		if err != nil {
			c.Close()
			return fmt.Errorf("replay entrant %s: %w", e.Name, err)
		}
		addStats(v, c.AnalyzerStats(), 1)
		v["place.legalize_ms"] += ms(c.PhaseTimes["legalize"])
		if probe == nil {
			probe = c
		} else {
			c.Close()
		}
	}
	rec.close(js, time.Now(), nil)

	var replayed []span
	for _, s := range rec.snapshot() {
		if s.Job == -1 {
			replayed = append(replayed, s)
		}
	}
	counts := values{}
	addStepLayers(counts, replayed, 1)
	for _, l := range stepLayers {
		v[l+".timing_recomputes"] = counts[l+".timing_recomputes"]
		v[l+".steiner_rebuilds"] = counts[l+".steiner_rebuilds"]
	}
	v["scenario.overhead_ms"] = interpreterOverheadMs(replayed, 1)
	analyzerProbe(probe, cfg.seed, v)
	return nil
}

// streamSpans rebuilds one job's spans from its trace stream as the
// client receives it: a job span from submit to the terminal flow_end,
// entrant spans from their first record to their flow_end, block spans,
// and step spans ending on receipt of step_end and starting dur_ms
// earlier.
type streamSpans struct {
	rec      *recorder
	parent   int
	job      int
	jobSpan  int
	entrants map[string]int
	blocks   map[string]int
}

func (s *streamSpans) begin(j int, t time.Time) {
	s.job = j
	s.jobSpan = s.rec.open(s.parent, "job", fmt.Sprintf("job%d", j), j, "", t)
	s.entrants = map[string]int{}
	s.blocks = map[string]int{}
}

func (s *streamSpans) event(ev scenario.Event, now time.Time) {
	es, ok := s.entrants[ev.Entrant]
	if !ok {
		es = s.rec.open(s.jobSpan, "entrant", ev.Entrant, s.job, ev.Entrant, now)
		s.entrants[ev.Entrant] = es
	}
	switch ev.Type {
	case scenario.EvBlockBegin:
		s.blocks[ev.Entrant] = s.rec.open(es, "block", ev.Block, s.job, ev.Entrant, now)
	case scenario.EvBlockEnd:
		s.rec.close(s.blocks[ev.Entrant], now, nil)
	case scenario.EvStepEnd, scenario.EvReject:
		startAt := now.Add(-time.Duration(ev.DurMs * float64(time.Millisecond)))
		id := s.rec.open(s.blocks[ev.Entrant], "step", ev.Step, s.job, ev.Entrant, startAt)
		s.rec.close(id, now, func(sp *span) { sp.Layer = layerOf[sp.Name] })
	case scenario.EvFlowEnd:
		s.rec.close(es, now, nil)
	}
}

func (s *streamSpans) end(t time.Time) { s.rec.close(s.jobSpan, t, nil) }
