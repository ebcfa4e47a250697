package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"tps/internal/autoflow"
	"tps/internal/netio"
	"tps/internal/portfolio"
	"tps/internal/scenario"
)

// Job is one queued or running job. The immutable fields are set at
// submit time; everything under mu is the externally visible state
// machine (queued → running → done|failed|canceled).
type Job struct {
	ID         string
	DesignName string
	run        runFunc       // the job kind, bound at submit
	sd         *storedDesign // the design every run forks (unshared if inline)
	want       int           // requested fan-out width

	hub *traceHub

	mu         sync.Mutex
	state      string
	err        string
	out        outcome
	granted    int
	cancel     context.CancelFunc // set while running
	cancelReq  bool
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
}

// runFunc runs one job kind on private forks of base inside the granted
// worker width, streaming its trace to tr under the run name id.
type runFunc func(ctx context.Context, base *netio.State, id string, workers int, tr scenario.Tracer) (outcome, error)

// outcome is a run's report: the judged flow's metrics and
// protected-step counters, and the race or search summary when the job
// is one.
type outcome struct {
	metrics          *scenario.Metrics
	accepts, rejects int
	race             *RaceInfo
	autotune         *AutotuneInfo
}

// info snapshots the job's externally visible state.
func (j *Job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	in := JobInfo{
		ID: j.ID, Design: j.DesignName, State: j.state, Error: j.err,
		Workers: j.granted, Accepts: j.out.accepts, Rejects: j.out.rejects,
		QueuedAt: j.queuedAt, Metrics: j.out.metrics, Race: j.out.race,
		Autotune: j.out.autotune,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		in.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		in.FinishedAt = &t
	}
	return in
}

// requestCancel flags the job for cancellation. A running job's context
// is canceled so the engine aborts at the next safe commit point; a
// queued job is skipped when a worker picks it up. Terminal jobs are
// unaffected.
func (j *Job) requestCancel() {
	j.mu.Lock()
	j.cancelReq = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// runJob executes one job end to end: state transitions, the design's
// turn, worker-budget grant, the job kind's run on private forks, and
// the terminal flow_end trace record. Called from a worker goroutine.
// The grant waits for the design's turn, so a job queued behind another
// job on its design is not granted workers while that job holds them.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.cancelReq {
		j.state = JobCanceled
		j.err = "canceled while queued"
		j.finishedAt = time.Now()
		j.mu.Unlock()
		j.hub.terminate("canceled while queued")
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	j.state = JobRunning
	j.startedAt = time.Now()
	j.mu.Unlock()
	defer cancel()

	j.sd.mu.Lock()
	defer j.sd.mu.Unlock()
	granted := s.budget.grant(j.want)
	defer s.budget.release(granted)
	j.mu.Lock()
	j.granted = granted
	j.mu.Unlock()
	j.finish(j.run(ctx, j.sd.base, j.ID, granted, j.hub))
}

// bindRun checks a submission's script or spec and binds its job kind's
// run function: an autotune search, a race, or a plain scenario. A bad
// script or spec thus fails at submit, not after queueing.
func bindRun(req *SubmitRequest) (runFunc, error) {
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	switch {
	case req.Autotune != nil && len(req.Entrants) > 0:
		return nil, errors.New("a job is a race or an autotune search, not both")
	case req.Autotune != nil:
		return searchJob(req, seed)
	case len(req.Entrants) > 0:
		return raceJob(req)
	case req.Scenario == "":
		return nil, errors.New("missing scenario script")
	}
	script, err := scenario.Parse(req.Scenario)
	if err != nil {
		return nil, fmt.Errorf("parse scenario: %w", err)
	}
	// One fresh fork and analyzer stack per run, its Steiner cache seeded
	// with the State's shared trees: the warm part of a stored-design
	// re-run is the skipped .tpn parse and tree build. A panic in the
	// flow becomes the job's error, stack included, so it fails this job
	// and the worker keeps serving.
	return func(ctx context.Context, base *netio.State, _ string, workers int, tr scenario.Tracer) (o outcome, err error) {
		defer scenario.CatchPanic(&err)
		c, _ := scenario.ForkContext(base, seed)
		defer c.Close()
		c.SetWorkers(workers)
		c.Trace = tr
		m, err := scenario.RunContext(ctx, c, script)
		o = outcome{accepts: c.Accepts, rejects: c.Rejects}
		if err == nil {
			o.metrics = &m
		}
		return o, err
	}, nil
}

// raceJob binds a race submission. At run time the worker grant becomes
// the race width (each entrant runs its analyzers serially on its own
// fork), the trace receives the merged entrant-tagged stream, and the
// job is judged by the winner.
func raceJob(req *SubmitRequest) (runFunc, error) {
	spec := portfolio.Spec{
		Objective: req.Objective,
		Deadline:  time.Duration(req.DeadlineSec * float64(time.Second)),
	}
	for i, e := range req.Entrants {
		text := e.Scenario
		if text == "" {
			text = req.Scenario
		}
		seed := e.Seed
		if seed == 0 {
			seed = int64(i + 1)
		}
		spec.Entrants = append(spec.Entrants, portfolio.Entrant{
			Name: e.Name, Script: text, Seed: seed,
			Bound: e.Bound, Params: e.Params,
		})
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return func(ctx context.Context, base *netio.State, id string, workers int, tr scenario.Tracer) (outcome, error) {
		s := spec
		s.Name, s.Workers, s.EntrantWorkers, s.Trace = id, workers, 1, tr
		res, err := portfolio.RaceFrom(ctx, base, s)
		o := outcome{race: RaceSummary(res)}
		if res != nil && res.Winner >= 0 {
			w := &res.Verdicts[res.Winner]
			o.metrics, o.accepts, o.rejects = w.Metrics, w.Accepts, w.Rejects
		}
		return o, err
	}, nil
}

// searchJob binds an autotune submission. At run time the worker grant
// bounds how many variants race at once (each runs its analyzers
// serially, like race entrants), the trace receives every variant's
// tagged flow plus the search's gen_summary/autotune_verdict records,
// and the job is judged by the best variant.
func searchJob(req *SubmitRequest, defaultSeed int64) (runFunc, error) {
	a := req.Autotune
	spec := autoflow.Spec{
		Script:      a.Scenario,
		Objective:   a.Objective,
		Population:  a.Population,
		Offspring:   a.Offspring,
		Generations: a.Generations,
		Stall:       a.Stall,
		Seed:        a.Seed,
		Deadline:    time.Duration(a.DeadlineSec * float64(time.Second)),
		Freeze:      a.Freeze,
		Insert:      a.Insert,
		Params:      a.Params,
	}
	if spec.Script == "" {
		spec.Script = req.Scenario
	}
	if spec.Seed == 0 {
		spec.Seed = defaultSeed
	}
	if a.Weights != nil {
		spec.Weights = *a.Weights
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return func(ctx context.Context, base *netio.State, id string, workers int, tr scenario.Tracer) (outcome, error) {
		s := spec
		s.Name, s.Workers, s.Trace = id, workers, tr
		res, err := autoflow.Search(ctx, base, s)
		o := outcome{autotune: AutotuneSummary(res)}
		if res != nil {
			o.metrics = res.BestMetrics
		}
		return o, err
	}, nil
}

// RaceSummary is a race result's report, as tpsd publishes it in
// JobInfo.Race and tpsflow prints it: the objective, the winner, and
// every entrant's verdict. Nil for a nil result.
func RaceSummary(res *portfolio.Result) *RaceInfo {
	if res == nil {
		return nil
	}
	ri := &RaceInfo{Objective: res.Objective, WinnerIndex: res.Winner}
	for i := range res.Verdicts {
		v := &res.Verdicts[i]
		ri.Verdicts = append(ri.Verdicts, RaceVerdict{
			Name: v.Name, Seed: v.Seed, Status: v.Status,
			Objective: v.Objective, DurMs: v.DurMs, Error: v.Err,
			Accepts: v.Accepts, Rejects: v.Rejects,
		})
	}
	if res.Winner >= 0 {
		ri.Winner = res.Verdicts[res.Winner].Name
	}
	return ri
}

// AutotuneSummary is a search result's report, as tpsd publishes it in
// JobInfo.Autotune and tpsflow prints it: the winning script and its
// objective against the base script's. Objectives travel as pointers
// because a failed flow has none (and ±Inf does not survive JSON). Nil
// for a nil result.
func AutotuneSummary(res *autoflow.Result) *AutotuneInfo {
	if res == nil {
		return nil
	}
	ai := &AutotuneInfo{
		Objective:   res.Objective,
		Generations: res.Generations,
		Evaluated:   res.Evaluated,
		Restarts:    res.Restarts,
	}
	if res.BestName != "" {
		ai.Winner = res.BestName
		ai.WinnerScript = res.BestScript
		o := res.BestObjective
		ai.WinnerObjective = &o
	}
	if !math.IsInf(res.BaseObjective, 0) && !math.IsNaN(res.BaseObjective) {
		b := res.BaseObjective
		ai.BaseObjective = &b
	}
	return ai
}

// finish moves the job to its terminal state and closes the trace
// stream with the flow_end record.
func (j *Job) finish(o outcome, err error) {
	j.mu.Lock()
	j.finishedAt = time.Now()
	j.out = o
	switch {
	case err == nil:
		j.state = JobDone
	case errIsCancel(err):
		j.state = JobCanceled
		j.err = err.Error()
	default:
		j.state = JobFailed
		j.err = err.Error()
	}
	errText := j.err
	j.mu.Unlock()
	j.hub.terminate(errText)
}
