package serve

import (
	"context"
	"math"
	"sync"
	"time"

	"tps/internal/autoflow"
	"tps/internal/portfolio"
	"tps/internal/scenario"
)

// Job is one queued or running scenario flow. The immutable fields are
// set at submit time; everything under mu is the externally visible
// state machine (queued → running → done|failed|canceled).
type Job struct {
	ID         string
	DesignName string
	script     *scenario.Script
	race       *portfolio.Spec // race submission (script is then nil)
	tune       *autoflow.Spec  // autotune submission (script is then nil)
	sd         *storedDesign   // the design every run forks (unshared if inline)
	seed       int64
	want       int // requested fan-out width

	hub *traceHub

	mu               sync.Mutex
	state            string
	err              string
	metrics          *scenario.Metrics
	raceInfo         *RaceInfo
	tuneInfo         *AutotuneInfo
	accepts, rejects int
	granted          int
	cancel           context.CancelFunc // set while running
	cancelReq        bool
	queuedAt         time.Time
	startedAt        time.Time
	finishedAt       time.Time
}

// info snapshots the job's externally visible state.
func (j *Job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	in := JobInfo{
		ID: j.ID, Design: j.DesignName, State: j.state, Error: j.err,
		Workers: j.granted, Accepts: j.accepts, Rejects: j.rejects,
		QueuedAt: j.queuedAt, Metrics: j.metrics, Race: j.raceInfo,
		Autotune: j.tuneInfo,
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

// runJob executes one job end to end: state transitions, worker-budget
// grant, the design's turn, the engine run on private forks, and the
// terminal flow_end trace record. Called from a worker goroutine.
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

	granted := s.budget.grant(j.want)
	defer s.budget.release(granted)
	j.mu.Lock()
	j.granted = granted
	j.mu.Unlock()

	j.sd.mu.Lock()
	defer j.sd.mu.Unlock()

	if j.tune != nil {
		// An autotune job: the worker grant bounds how many variants race
		// concurrently (each variant's flow runs its analyzers serially,
		// exactly like race entrants), the hub receives every variant's
		// tagged flow plus the search's gen_summary/autotune_verdict
		// records, and the job is judged by the best variant.
		spec := *j.tune
		spec.Name = j.ID
		spec.Workers = granted
		spec.Trace = j.hub
		res, err := autoflow.Search(ctx, j.sd.base, spec)
		j.finishAutotune(res, err)
		return
	}

	if j.race != nil {
		// A race job: the worker grant becomes the race width (each
		// entrant runs its analyzers serially on its own fork), the hub
		// receives the merged entrant-tagged stream, and the job is
		// judged by the winner.
		spec := *j.race
		spec.Name = j.ID
		spec.Workers = granted
		spec.EntrantWorkers = 1
		spec.Trace = j.hub
		res, err := portfolio.RaceFrom(ctx, j.sd.base, spec)
		j.finishRace(res, err)
		return
	}

	m, accepts, rejects, err := j.runScript(ctx, granted)
	if err != nil {
		j.finish(nil, accepts, rejects, err)
		return
	}
	j.finish(&m, accepts, rejects, nil)
}

// runScript runs a plain-scenario job on a fresh fork and analyzer
// stack: correctness over analyzer warmness. The warm part of a
// stored-design re-run is the skipped .tpn parse, not incremental
// analyzer state. A panic in the flow becomes the job's error, stack
// included, so it fails this job and the worker keeps serving.
func (j *Job) runScript(ctx context.Context, workers int) (m scenario.Metrics, accepts, rejects int, err error) {
	defer scenario.CatchPanic(&err)
	c := scenario.NewContext(j.sd.base.Fork(), j.seed)
	defer c.Close()
	c.SetWorkers(workers)
	c.Trace = j.hub
	m, err = scenario.RunContext(ctx, c, j.script)
	return m, c.Accepts, c.Rejects, err
}

// finishRace summarizes a race result into the job's terminal state:
// the winner's metrics and counters become the job's, and the full
// per-entrant verdict table is published as RaceInfo. A race that no
// entrant finished fails with ErrNoWinner; an aborted race is canceled.
func (j *Job) finishRace(res *portfolio.Result, err error) {
	var m *scenario.Metrics
	var accepts, rejects int
	var ri *RaceInfo
	if res != nil {
		ri = &RaceInfo{Objective: res.Objective, WinnerIndex: res.Winner}
		for i := range res.Verdicts {
			v := &res.Verdicts[i]
			ri.Verdicts = append(ri.Verdicts, RaceVerdict{
				Name: v.Name, Seed: v.Seed, Status: v.Status,
				Objective: v.Objective, DurMs: v.DurMs, Error: v.Err,
				Accepts: v.Accepts, Rejects: v.Rejects,
			})
		}
		if res.Winner >= 0 {
			w := &res.Verdicts[res.Winner]
			ri.Winner = w.Name
			m = w.Metrics
			accepts, rejects = w.Accepts, w.Rejects
		}
	}
	j.mu.Lock()
	j.raceInfo = ri
	j.mu.Unlock()
	j.finish(m, accepts, rejects, err)
}

// finishAutotune summarizes a search result into the job's terminal
// state: the best variant's metrics become the job's and the winning
// script is published as AutotuneInfo. Objectives travel as pointers
// because a failed base flow has none (and ±Inf does not survive JSON).
func (j *Job) finishAutotune(res *autoflow.Result, err error) {
	var m *scenario.Metrics
	var ai *AutotuneInfo
	if res != nil {
		ai = &AutotuneInfo{
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
			m = res.BestMetrics
		}
		if !math.IsInf(res.BaseObjective, 0) && !math.IsNaN(res.BaseObjective) {
			b := res.BaseObjective
			ai.BaseObjective = &b
		}
	}
	j.mu.Lock()
	j.tuneInfo = ai
	j.mu.Unlock()
	j.finish(m, 0, 0, err)
}

// finish moves the job to its terminal state and closes the trace
// stream with the flow_end record.
func (j *Job) finish(m *scenario.Metrics, accepts, rejects int, err error) {
	j.mu.Lock()
	j.finishedAt = time.Now()
	j.accepts, j.rejects = accepts, rejects
	j.metrics = m
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
