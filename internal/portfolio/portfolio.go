// Package portfolio races N scenario flows from one design checkpoint
// and adopts the winner by traced objective. It generalizes the
// multi-placement-structures idea — precompute alternatives, pick the
// best at instantiation time — to whole transformational flows: each
// entrant varies the seed, the script, or the script parameters, all
// starting from a fork of the same netio.State snapshot.
//
// # Determinism
//
// Races are deterministic in the partition best-of sense: the winner's
// identity, Metrics, and AnalyzerStats are bit-identical at any Workers
// width and under any entrant reordering (an entrant's verdict depends
// only on its own spec). Two mechanisms make that hold:
//
//   - Winner selection scans verdicts in entrant order with a strict
//     better-than test, so ties break toward the lowest entrant index —
//     never toward whichever goroutine finished first.
//
//   - Early-stop only cancels an entrant when a *finished* entrant
//     already beats the best objective the victim could still reach
//     (a sound static bound: slack can never exceed the clock period,
//     TNS and negated wire length can never exceed zero, and a spec may
//     tighten these with a per-entrant Bound). A dominated entrant can
//     therefore never have won at any width, and because its dominator
//     always finishes regardless of scheduling, skipping the victim
//     cannot change the winner among the rest. Scheduling timing decides
//     only *whether a doomed entrant burns cycles before noticing*, not
//     who wins.
//
// A race Deadline is the one wall-clock escape hatch: entrants clipped
// by it get verdict StatusDeadline, and determinism is guaranteed only
// for runs in which no entrant hits the deadline.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"tps/internal/gen"
	"tps/internal/netio"
	"tps/internal/par"
	"tps/internal/scenario"
)

// Entrant is one competitor in a race: a scenario script plus the knobs
// that differentiate it from its siblings.
type Entrant struct {
	// Name tags the entrant's trace events and verdict. Defaults to
	// "e<index>"; names must be unique within a race.
	Name string
	// Script is the scenario script text the entrant runs.
	Script string
	// Seed seeds the entrant's flow context.
	Seed int64
	// Params overlays the script's `set` parameters (entrant wins), the
	// same way Context.Params does for a single run.
	Params map[string]string
	// Bound, if set, tightens the entrant's best-possible objective used
	// by early-stop (same larger-is-better scale as the race objective).
	// It must be sound — an overestimate is safe, an underestimate can
	// cancel a would-be winner. Leave nil to use the static bound.
	Bound *float64
}

// Spec configures a race.
type Spec struct {
	// Name labels the race in traces and verdicts.
	Name string
	// Entrants are the competitors, in tie-break priority order.
	Entrants []Entrant
	// Objective selects the judged metric by scenario.CheckObjective's
	// vocabulary (default slack), on the larger-is-better scale of the
	// scenario engine's protected steps.
	Objective string
	// Deadline caps the whole race's wall clock; zero means none.
	Deadline time.Duration
	// Workers bounds how many entrants run concurrently (default
	// par.Workers(), capped at the entrant count).
	Workers int
	// EntrantWorkers is each entrant's analyzer/transform worker width
	// (default 1; entrants are the parallelism axis here).
	EntrantWorkers int
	// NoEarlyStop disables dominance cancellation (every entrant runs to
	// its own end). Useful when all verdicts matter, e.g. experiments.
	NoEarlyStop bool
	// Trace, if set, receives every entrant's events tagged with the
	// entrant name (each closed by a flow_end record) and one final
	// race_verdict record. Must be safe for concurrent use
	// (JSONLTracer and the serve hub are).
	Trace scenario.Tracer
	// Log, if set, receives entrant flow logs. Must serialize whole
	// writes (an *os.File does). Nil silences entrant logs.
	Log io.Writer
}

// Verdict statuses.
const (
	// StatusFinished: the entrant ran to completion and was judged.
	StatusFinished = "finished"
	// StatusFailed: the entrant's flow returned an error of its own.
	StatusFailed = "failed"
	// StatusDominated: early-stop canceled the entrant because a finished
	// entrant beat its best-possible objective.
	StatusDominated = "dominated"
	// StatusDeadline: the race deadline expired while the entrant ran.
	StatusDeadline = "deadline"
	// StatusCanceled: the caller's context was canceled.
	StatusCanceled = "canceled"
)

// Verdict is one entrant's outcome.
type Verdict struct {
	Name  string
	Index int
	Seed  int64
	// Status is one of the Status* constants.
	Status string
	// Objective is the judged objective value (finished entrants only).
	Objective float64
	// Metrics / Stats are the entrant's final measurements (finished
	// entrants only; Stats is meaningful only then too).
	Metrics *scenario.Metrics
	Stats   scenario.AnalyzerStats
	// Accepts / Rejects are the entrant's protected-step counters.
	Accepts int
	Rejects int
	// DurMs is the entrant's wall clock. Informational only — never
	// consulted by winner selection.
	DurMs float64
	// Err is the failure text (failed entrants).
	Err string
}

// Result is a race outcome.
type Result struct {
	// Name echoes Spec.Name; Objective the resolved objective key.
	Name      string
	Objective string
	// Winner indexes Verdicts (and Spec.Entrants), -1 if no entrant
	// finished.
	Winner int
	// WinnerDesign is the winning entrant's final design (Fork it to
	// adopt it). Nil if no winner.
	WinnerDesign *netio.State
	// Verdicts has one entry per entrant, in entrant order.
	Verdicts []Verdict
	// Designs holds each finished entrant's final design, indexed like
	// Verdicts (nil for entrants that did not finish).
	// WinnerDesign == Designs[Winner]. Autoflow selects its own survivor
	// by (objective, creation order), which is not always the race's
	// lowest-index tie-break, so it needs the non-winning designs too.
	Designs []*netio.State
}

// ErrNoWinner reports a race in which no entrant finished.
var ErrNoWinner = errors.New("portfolio: no entrant finished")

// MaxEntrants bounds a race's size; a runaway spec is a config bug.
const MaxEntrants = 64

// Race snapshots base once and races from the snapshot (see RaceFrom).
// base itself is only read, never mutated.
func Race(ctx context.Context, base *gen.Design, spec Spec) (*Result, error) {
	return RaceFrom(ctx, netio.CaptureDesign(base), spec)
}

// RaceFrom forks base into one copy per entrant, runs the entrants
// concurrently, and returns the winner by the race objective with
// deterministic seed-ordered tie-breaking (see the package comment).
// Autoflow and the tpsd design store race this way from a State they
// keep, so a base design is captured once however often it is raced.
//
// On ctx cancellation the race aborts: every entrant is interrupted
// through the scenario engine's cooperative-cancel path (protected steps
// roll back to their checkpoints first), and RaceFrom returns the
// partial Result alongside ctx's error. If all entrants fail, deadline
// out, or are canceled, the error wraps ErrNoWinner.
func RaceFrom(ctx context.Context, base *netio.State, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := len(spec.Entrants)
	obj := spec.Objective
	if obj == "" {
		obj = scenario.DefaultObjective
	}

	raceCtx := ctx
	if spec.Deadline > 0 {
		var cancel context.CancelFunc
		raceCtx, cancel = context.WithTimeout(ctx, spec.Deadline)
		defer cancel()
	}
	width := spec.Workers
	if width <= 0 {
		width = par.Workers()
	}
	if width > n {
		width = n
	}

	r := &race{
		spec:     &spec,
		obj:      obj,
		base:     base,
		parent:   ctx,
		ctx:      raceCtx,
		verdicts: make([]Verdict, n),
		designs:  make([]*netio.State, n),
		cancels:  make([]context.CancelFunc, n),
		skip:     make([]bool, n),
		done:     make([]bool, n),
	}
	par.ForEach(width, n, r.run)

	res := &Result{Name: spec.Name, Objective: obj, Winner: -1, Verdicts: r.verdicts, Designs: r.designs}
	for i := range res.Verdicts {
		v := &res.Verdicts[i]
		if v.Status != StatusFinished {
			continue
		}
		// Strict better-than in entrant order: ties keep the earlier
		// entrant, independent of completion order.
		if res.Winner < 0 || v.Objective > res.Verdicts[res.Winner].Objective {
			res.Winner = i
		}
	}
	if res.Winner >= 0 {
		res.WinnerDesign = r.designs[res.Winner]
	}
	if spec.Trace != nil {
		ev := scenario.Event{Type: scenario.EvRaceVerdict, Scenario: spec.Name, Detail: obj}
		if res.Winner >= 0 {
			w := &res.Verdicts[res.Winner]
			ev.Winner = w.Name
			o := w.Objective
			ev.Objective = &o
		}
		spec.Trace.Emit(ev)
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("portfolio: race aborted: %w", err)
	}
	if res.Winner < 0 {
		return res, ErrNoWinner
	}
	return res, nil
}

// Validate checks everything a race needs before any flow starts: 1 to
// MaxEntrants entrants with unique names and scripts that parse, an
// objective scenario knows, and no negative deadline. RaceFrom and
// ParseSpec both call it.
func (s *Spec) Validate() error {
	n := len(s.Entrants)
	if n == 0 {
		return errors.New("portfolio: race needs at least one entrant")
	}
	if n > MaxEntrants {
		return fmt.Errorf("portfolio: %d entrants exceeds the limit of %d", n, MaxEntrants)
	}
	if err := scenario.CheckObjective(s.Objective); err != nil {
		return fmt.Errorf("portfolio: %w", err)
	}
	if s.Deadline < 0 {
		return errors.New("portfolio: negative deadline")
	}
	seen := make(map[string]int, n)
	for i := range s.Entrants {
		e := &s.Entrants[i]
		name := entrantName(e, i)
		if j, dup := seen[name]; dup {
			return fmt.Errorf("portfolio: entrants %d and %d share the name %q", j, i, name)
		}
		seen[name] = i
		if e.Script == "" {
			return fmt.Errorf("portfolio: entrant %q has no script", name)
		}
		// Each entrant re-parses privately at run time: a parsed Script
		// carries per-run step latches and must not be shared across
		// goroutines.
		if _, err := scenario.Parse(e.Script); err != nil {
			return fmt.Errorf("portfolio: entrant %q: %w", name, err)
		}
	}
	return nil
}

// race is one Race invocation's shared state. mu guards verdicts,
// designs, cancels, skip, and done.
type race struct {
	mu       sync.Mutex
	spec     *Spec
	obj      string
	base     *netio.State
	parent   context.Context // caller's ctx: distinguishes abort from deadline
	ctx      context.Context // parent + race deadline
	verdicts []Verdict
	designs  []*netio.State
	cancels  []context.CancelFunc
	skip     []bool
	done     []bool
}

// run executes entrant i. It is the par.ForEach body, so at Workers=1 it
// runs serially in entrant order — the baseline every wider schedule
// must reproduce.
func (r *race) run(i int) {
	e := &r.spec.Entrants[i]
	v := Verdict{Name: entrantName(e, i), Index: i, Seed: e.Seed}
	var tr *entrantTracer
	if r.spec.Trace != nil {
		tr = &entrantTracer{name: v.Name, out: r.spec.Trace}
	}

	r.mu.Lock()
	if r.skip[i] {
		r.mu.Unlock()
		v.Status = StatusDominated
		r.finish(i, v, tr)
		return
	}
	ectx, cancel := context.WithCancel(r.ctx)
	r.cancels[i] = cancel
	r.mu.Unlock()
	defer cancel()

	start := time.Now()
	design, err := r.exec(ectx, e, &v, tr)
	v.DurMs = float64(time.Since(start)) / float64(time.Millisecond)

	switch {
	case err == nil:
		v.Status = StatusFinished
	case r.wasSkipped(i) && interruptedErr(err):
		v.Status = StatusDominated
	case r.parent.Err() != nil && interruptedErr(err):
		v.Status = StatusCanceled
	case r.ctx.Err() != nil && interruptedErr(err):
		v.Status = StatusDeadline
	default:
		v.Status = StatusFailed
		v.Err = err.Error()
	}
	if v.Status == StatusFinished {
		r.mu.Lock()
		r.designs[i] = design
		r.mu.Unlock()
	}
	r.finish(i, v, tr)
}

// exec parses, forks, and runs one entrant flow, returning the final
// design on success. A panic in the flow becomes the entrant's error,
// stack included: it fails this entrant only (autoflow generations race
// through here too).
func (r *race) exec(ctx context.Context, e *Entrant, v *Verdict, tr *entrantTracer) (_ *netio.State, err error) {
	defer scenario.CatchPanic(&err)
	script, err := scenario.Parse(e.Script)
	if err != nil {
		return nil, err
	}
	c, gd := scenario.ForkContext(r.base, e.Seed)
	defer c.Close()
	ew := r.spec.EntrantWorkers
	if ew < 1 {
		ew = 1
	}
	c.SetWorkers(ew)
	if r.spec.Log != nil {
		c.Log = r.spec.Log
	}
	if len(e.Params) > 0 {
		c.Params = make(map[string]string, len(e.Params))
		for k, val := range e.Params {
			c.Params[k] = val
		}
	}
	if tr != nil {
		c.Trace = tr
	}
	m, err := scenario.RunContext(ctx, c, script)
	v.Accepts, v.Rejects = c.Accepts, c.Rejects
	if err != nil {
		return nil, err
	}
	v.Metrics = &m
	v.Stats = c.AnalyzerStats()
	v.Objective = m.Objective(r.obj)
	return netio.CaptureDesign(gd), nil
}

// finish records the verdict, closes the entrant's tagged trace flow,
// and — when the entrant finished — cancels every still-pending entrant
// it dominates.
func (r *race) finish(i int, v Verdict, tr *entrantTracer) {
	r.mu.Lock()
	r.verdicts[i] = v
	r.done[i] = true
	r.cancels[i] = nil
	if v.Status == StatusFinished && !r.spec.NoEarlyStop {
		for j := range r.verdicts {
			if j == i || r.done[j] || r.skip[j] {
				continue
			}
			if r.dominates(v.Objective, i, j) {
				r.skip[j] = true
				if cancel := r.cancels[j]; cancel != nil {
					cancel()
				}
			}
		}
	}
	r.mu.Unlock()
	if tr != nil {
		tr.Emit(scenario.Event{Type: scenario.EvFlowEnd, Err: v.Err, Detail: v.Status})
	}
}

// dominates reports whether a finished objective obj (entrant i) beats
// entrant j's best possible outcome outright, or ties it while holding
// tie-break priority (i < j). Soundness of the bound is what keeps
// early-stop schedule-invariant: bound(j) ≥ any objective j could
// actually post, so a dominated j could never have displaced i.
func (r *race) dominates(obj float64, i, j int) bool {
	b := r.bound(j)
	return obj > b || (obj == b && i < j)
}

// bound returns entrant j's best-possible objective: the user-declared
// Bound if given, else the static bound, the objective of a perfect
// design — worst slack at the clock period (slack = required − arrival
// ≤ period with non-negative arrivals), no negative slack, no wire.
func (r *race) bound(j int) float64 {
	if b := r.spec.Entrants[j].Bound; b != nil {
		return *b
	}
	perfect := scenario.Metrics{WorstSlack: r.base.Period()}
	return perfect.Objective(r.obj)
}

func (r *race) wasSkipped(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.skip[i]
}

// interruptedErr reports whether err is (or wraps) a context
// cancellation — the only errors eligible for the dominated/deadline/
// canceled verdicts. Anything else is the entrant's own failure.
func interruptedErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func entrantName(e *Entrant, i int) string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("e%d", i)
}

// entrantTracer tags every event of one entrant's flow and renumbers
// Seq with a private counter, so each tagged flow carries its own
// monotonic sequence regardless of how entrants interleave in the
// shared sink. One tracer per entrant; Emit is called only from that
// entrant's goroutine.
type entrantTracer struct {
	name string
	out  scenario.Tracer
	seq  int
}

func (t *entrantTracer) Emit(e scenario.Event) {
	t.seq++
	e.Seq = t.seq
	e.Entrant = t.name
	t.out.Emit(e)
}
