package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"tps/internal/netio"
)

// Run executes a parsed scenario against the context and returns the
// flow metrics. The interpreter walks the script's blocks in order:
// BlockOnce blocks run each step once, BlockStatus drives the placement
// status from 0 to 100 in increments of the "step" parameter running the
// block at each advance, and BlockRepeat reruns its steps until worst
// slack stops improving by more than its stall epsilon (or the cap).
//
// Scenario parameters are the script's "set" lines; any parameters
// already present on the context (e.g. CLI overrides) win over the
// script's; an "objective" outside CheckObjective's vocabulary fails the
// run before its first step. An error from an unprotected step aborts
// the run; protected steps instead roll back to their checkpoint and
// count as rejected.
func Run(c *Context, s *Script) (Metrics, error) {
	return RunContext(context.Background(), c, s)
}

// CatchPanic, deferred directly by a function with a named error
// result, turns a panic on that goroutine into that error — "panic: "
// plus the value and the stack — so a failing flow ends its own run
// instead of the host process (a tpsd job, a race entrant).
func CatchPanic(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
	}
}

// RunContext is Run under a cancellation context. Cancelling ctx stops
// the flow at the next safe commit point: the interpreter checks it
// before every step, and cooperative transform bodies poll it through
// Context.Interrupted inside their loops. A protected step in flight
// when the cancel lands is rolled back to its checkpoint first, so the
// design is left consistent; the run then returns an error wrapping
// ctx's error (errors.Is(err, context.Canceled) identifies a cancel).
func RunContext(ctx context.Context, c *Context, s *Script) (Metrics, error) {
	start := time.Now()
	c.runCtx = ctx
	defer func() { c.runCtx = nil }()

	params := make(map[string]string, len(s.Params)+len(c.Params))
	for k, v := range s.Params {
		params[k] = v
	}
	for k, v := range c.Params {
		params[k] = v
	}
	c.Params = params
	if err := CheckObjective(params["objective"]); err != nil {
		return Metrics{}, fmt.Errorf("scenario: %w", err)
	}
	c.Scratch = map[string]any{}
	c.Status, c.PrevStatus = 0, 0
	c.ScenarioName = s.Name
	c.M = nil
	c.Accepts, c.Rejects = 0, 0
	c.repeatIters = 0
	c.seq = 0
	for bi := range s.Blocks {
		for _, st := range s.Blocks[bi].Steps {
			st.done = false
		}
	}

	c.emit(Event{Type: EvScenarioBegin, Scenario: s.Name})
	for bi := range s.Blocks {
		if err := c.runBlock(&s.Blocks[bi]); err != nil {
			c.emit(Event{Type: EvScenarioEnd, Scenario: s.Name, Err: err.Error()})
			return Metrics{}, err
		}
	}

	// A scenario that never evaluated still reports something useful.
	if c.M == nil {
		m := c.Evaluate(s.Name)
		c.M = &m
	}
	c.M.CPUSeconds = time.Since(start).Seconds()
	c.M.Iterations = 1 + c.repeatIters
	c.emit(Event{
		Type: EvScenarioEnd, Scenario: s.Name,
		Slack: fptr(c.M.WorstSlack), TNS: fptr(c.M.TNS), Wire: fptr(c.M.SteinerWireUm),
		Changed: c.Accepts, Iter: c.Rejects,
	})
	return *c.M, nil
}

func (c *Context) runBlock(b *Block) error {
	c.emit(Event{Type: EvBlockBegin, Block: b.Label, Status: c.Status})
	switch b.Kind {
	case BlockOnce:
		// Steps in once-blocks test their windows against the resting
		// status (0 before any status loop, 100 after).
		c.PrevStatus = c.Status
		for _, st := range b.Steps {
			if err := c.execStep(b, st); err != nil {
				return err
			}
		}

	case BlockStatus:
		step := c.ParamInt("step", 5)
		if step <= 0 {
			step = 5
		}
		for c.Status < 100 {
			c.PrevStatus = c.Status
			c.Status += step
			if c.Status > 100 {
				c.Status = 100
			}
			c.emit(Event{
				Type: EvStatus, Block: b.Label,
				Status: c.Status, PrevStatus: c.PrevStatus,
				SteinerDirty: c.St.DirtyNets(),
			})
			for _, st := range b.Steps {
				if err := c.execStep(b, st); err != nil {
					return err
				}
			}
		}

	case BlockRepeat:
		c.PrevStatus = c.Status
		prev := c.Eng.WorstSlack()
		c.Logf("%s: starting slack %.0f", b.Label, prev)
		for it := 1; it <= b.Max; it++ {
			for _, st := range b.Steps {
				if err := c.execStep(b, st); err != nil {
					return err
				}
			}
			c.repeatIters++
			ws := c.Eng.WorstSlack()
			c.emit(Event{
				Type: EvStatus, Block: b.Label, Status: c.Status, Iter: it,
				Slack:        fptr(ws),
				SteinerDirty: c.St.DirtyNets(),
			})
			c.Logf("%s iter %d: slack %.0f", b.Label, it, ws)
			if ws <= prev+b.Stall {
				break
			}
			prev = ws
		}
	}
	c.emit(Event{Type: EvBlockEnd, Block: b.Label, Status: c.Status})
	return nil
}

func (c *Context) execStep(b *Block, st *Step) error {
	if st.done {
		return nil
	}
	if !st.triggered(c.PrevStatus, c.Status) {
		return nil
	}
	// The between-steps cancellation point: the design is always at a
	// safe commit point here, so an aborted run leaves it consistent.
	if c.runCtx != nil {
		if cerr := c.runCtx.Err(); cerr != nil {
			return fmt.Errorf("scenario: canceled before step %s: %w", st.Name, cerr)
		}
	}
	tr := Lookup(st.Name)
	if tr == nil {
		// Parse validated the registry; a miss here means a script built by
		// hand from Blocks, so fail loudly.
		return fmt.Errorf("scenario: unknown transform %q", st.Name)
	}
	if st.WhenMode != "" {
		match := c.Calc.Mode.String() == st.WhenMode
		if match == st.WhenNeq {
			c.emit(Event{Type: EvStepSkip, Block: b.Label, Step: st.Name, Status: c.Status, Detail: "mode"})
			return nil
		}
	}
	if tr.Guard != nil && !tr.Guard(c) {
		c.emit(Event{Type: EvStepSkip, Block: b.Label, Step: st.Name, Status: c.Status, Detail: "guard"})
		return nil
	}
	if st.Once {
		st.done = true
	}
	args := Args{kv: st.Args, ctx: c}
	c.emit(Event{Type: EvStepBegin, Block: b.Label, Step: st.Name, Status: c.Status, PrevStatus: c.PrevStatus})
	t0 := time.Now()

	if !st.Protect {
		rep, err := tr.Run(c, args)
		dur := time.Since(t0)
		if err != nil {
			c.emit(Event{Type: EvStepEnd, Block: b.Label, Step: st.Name, Status: c.Status,
				Err: err.Error(), DurMs: dur.Seconds() * 1000})
			return fmt.Errorf("scenario: step %s: %w", st.Name, err)
		}
		c.emit(Event{Type: EvStepEnd, Block: b.Label, Step: st.Name, Status: c.Status,
			Changed: rep.Changed, Detail: rep.Detail, DurMs: dur.Seconds() * 1000})
		return nil
	}

	// Protected execution: checkpoint, run, judge, keep or rewind. The
	// maxsec budget is armed as a deadline BEFORE the body runs, so a
	// transform that polls Interrupted is cut off mid-loop instead of
	// being judged only after it finally returns.
	c.checkpoint()
	objBefore := c.objective()
	if st.MaxSec > 0 {
		c.stepDeadline = time.Now().Add(time.Duration(st.MaxSec * float64(time.Second)))
	}
	rep, err := tr.Run(c, args)
	c.stepDeadline = time.Time{}
	dur := time.Since(t0)

	// A run-level cancel outranks the step's own outcome: the step is
	// rolled back like any rejection, then the whole run aborts.
	canceled := c.runCtx != nil && c.runCtx.Err() != nil

	reason := ""
	objAfter := objBefore
	switch {
	case canceled:
		reason = "canceled"
	case errors.Is(err, ErrStepTimeout):
		reason = "timeout"
	case err != nil:
		reason = "error"
	case st.MaxSec > 0 && dur.Seconds() > st.MaxSec:
		reason = "timeout"
	default:
		objAfter = c.objective()
		if objAfter < objBefore-st.Tol {
			reason = "regression"
		}
	}

	if reason == "" {
		c.Accepts++
		c.emit(Event{Type: EvStepEnd, Block: b.Label, Step: st.Name, Status: c.Status,
			Changed: rep.Changed, Detail: rep.Detail, DurMs: dur.Seconds() * 1000,
			Accepted: true, ObjBefore: fptr(objBefore), ObjAfter: fptr(objAfter)})
		return nil
	}

	if rerr := c.ckpt.Restore(c.NL); rerr != nil {
		// A failed rollback leaves the design undefined; that is fatal.
		return fmt.Errorf("scenario: step %s: rollback failed: %v (step outcome: %s)", st.Name, rerr, reason)
	}
	c.Im.RestoreUsage(c.usage)
	ev := Event{Type: EvReject, Block: b.Label, Step: st.Name, Status: c.Status,
		Reason: reason, DurMs: dur.Seconds() * 1000,
		ObjBefore: fptr(objBefore)}
	if err != nil {
		ev.Err = err.Error()
	}
	if reason == "regression" {
		ev.ObjAfter = fptr(objAfter)
	}
	if reason == "canceled" {
		// Rolled back for consistency, but not a judged rejection: the
		// run itself is being aborted.
		c.emit(ev)
		return fmt.Errorf("scenario: step %s canceled: %w", st.Name, c.runCtx.Err())
	}
	c.Rejects++
	c.emit(ev)
	c.Logf("step %s at status %d rejected (%s)", st.Name, c.Status, reason)
	return nil
}

// checkpoint captures the design into the context's one checkpoint
// State and bin-usage copy, overwriting the previous protected step's
// in place (netio.State.Recapture): only the context's first capture,
// or one after the design outgrew the last, allocates.
func (c *Context) checkpoint() {
	if c.ckpt == nil {
		c.ckpt = netio.Capture(c.NL)
	} else {
		c.ckpt.Recapture(c.NL)
	}
	c.usage = c.Im.SnapshotUsage(c.usage)
}

// DefaultObjective is the objective judged when none is named.
const DefaultObjective = "slack"

// CheckObjective reports whether name selects an objective: "slack"
// (worst slack), "tns" (total negative slack), "wire" (Steiner wire
// length), or "" for the default. Protected steps, portfolio races and
// autoflow searches all judge by this one vocabulary.
func CheckObjective(name string) error {
	switch name {
	case "", DefaultObjective, "tns", "wire":
		return nil
	}
	return fmt.Errorf("unknown objective %q (want slack, tns, or wire)", name)
}

// objectiveOf maps a checked objective name to its reading, always
// larger-is-better (wire length is negated). Only the selected reading
// is taken, so a protected step pays for the analyzer it is judged by
// and no other.
func objectiveOf(name string, slack, tns, wire func() float64) float64 {
	switch name {
	case "tns":
		return tns()
	case "wire":
		return -wire()
	default:
		return slack()
	}
}

// Objective reads the named objective from final metrics, on the same
// larger-is-better scale protected steps judge by.
func (m *Metrics) Objective(name string) float64 {
	return objectiveOf(name,
		func() float64 { return m.WorstSlack },
		func() float64 { return m.TNS },
		func() float64 { return m.SteinerWireUm })
}

// objective evaluates the scenario's accept/reject criterion for
// protected steps, selected by the "objective" parameter.
func (c *Context) objective() float64 {
	return objectiveOf(c.ParamStr("objective", DefaultObjective), c.Eng.WorstSlack, c.Eng.TNS, c.St.Total)
}
