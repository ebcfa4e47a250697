package scenario

import (
	"encoding/json"
	"io"
	"sync"
)

// EventType enumerates the trace-event stream's record kinds.
type EventType string

const (
	// EvScenarioBegin/EvScenarioEnd bracket a whole Run.
	EvScenarioBegin EventType = "scenario_begin"
	EvScenarioEnd   EventType = "scenario_end"
	// EvBlockBegin/EvBlockEnd bracket each block (init/status/repeat/final).
	EvBlockBegin EventType = "block_begin"
	EvBlockEnd   EventType = "block_end"
	// EvStatus marks one placement-status advance inside a status block,
	// and one iteration inside a repeat block.
	EvStatus EventType = "status"
	// EvStepBegin/EvStepEnd bracket one transform execution.
	EvStepBegin EventType = "step_begin"
	EvStepEnd   EventType = "step_end"
	// EvStepSkip records a step whose trigger/condition/guard held it back.
	EvStepSkip EventType = "step_skip"
	// EvReject records a protected step that was rolled back.
	EvReject EventType = "reject"
	// EvFlowEnd is the terminal record a tool or server appends after the
	// engine finishes (or fails, or is canceled): the one line a stream
	// consumer can always wait for. The engine itself never emits it —
	// EvScenarioEnd is the engine's last word; EvFlowEnd is the
	// embedder's, carrying the overall error text when the run died.
	EvFlowEnd EventType = "flow_end"
	// EvRaceVerdict is the one record a portfolio race appends after all
	// entrants have ended: the winning entrant (Winner/Objective) and the
	// race objective name (Detail). A race stream therefore carries one
	// tagged flow per entrant, each closed by its own EvFlowEnd, then
	// exactly one EvRaceVerdict.
	EvRaceVerdict EventType = "race_verdict"
	// EvGenSummary is one autoflow generation's summary record: Gen, the
	// number of variants evaluated this generation (Changed), the
	// generation-best variant (Winner) and its objective value. Emitted by
	// the search loop, once per generation, between the generation's
	// per-variant flows.
	EvGenSummary EventType = "gen_summary"
	// EvAutotuneVerdict is the terminal record of an autoflow search: the
	// winning variant (Winner/Objective), the objective name (Detail),
	// generations run (Gen), and total variants evaluated (Changed). A
	// search stream carries one tagged flow per evaluated variant, one
	// EvGenSummary per generation, then exactly one EvAutotuneVerdict.
	EvAutotuneVerdict EventType = "autotune_verdict"
)

// Event is one structured trace record. Numeric fields are filled only
// where meaningful for the event type; `omitempty` keeps the JSONL
// stream tight.
type Event struct {
	Type EventType `json:"type"`
	Seq  int       `json:"seq"`
	// Scenario is the script name (scenario_begin/end only).
	Scenario string `json:"scenario,omitempty"`
	// Block is the block label for block and step events.
	Block string `json:"block,omitempty"`
	// Step is the transform name for step events.
	Step string `json:"step,omitempty"`
	// Status / PrevStatus frame the current status advance.
	Status     int `json:"status,omitempty"`
	PrevStatus int `json:"prev_status,omitempty"`
	// Iter is the repeat-block iteration (1-based), 0 elsewhere.
	Iter int `json:"iter,omitempty"`
	// Changed is the transform report's change count (step_end).
	Changed int `json:"changed,omitempty"`
	// Detail carries the transform report detail or skip reason.
	Detail string `json:"detail,omitempty"`
	// Err is the transform's error text, if it failed.
	Err string `json:"err,omitempty"`
	// DurMs is the step's wall-clock milliseconds (step_end, reject).
	DurMs float64 `json:"dur_ms,omitempty"`
	// Slack/TNS/Wire snapshot metric deltas where the engine measures them
	// (status events, scenario_end).
	Slack *float64 `json:"slack,omitempty"`
	TNS   *float64 `json:"tns,omitempty"`
	Wire  *float64 `json:"wire,omitempty"`
	// SteinerDirty (live nets with a stale Steiner tree) is the
	// analyzers' pending work at status events.
	SteinerDirty int `json:"steiner_dirty,omitempty"`
	// Accepted / rejected protected-step outcome (step_end of protected
	// steps, reject events) and the rejection reason
	// ("error" | "timeout" | "regression" | "canceled").
	Accepted bool   `json:"accepted,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// ObjBefore/ObjAfter are the scenario objective around a protected
	// step (larger is better).
	ObjBefore *float64 `json:"obj_before,omitempty"`
	ObjAfter  *float64 `json:"obj_after,omitempty"`
	// Entrant tags every record of one portfolio-race entrant's flow.
	// Empty on single-flow runs; the race tracer stamps it.
	Entrant string `json:"entrant,omitempty"`
	// Winner / Objective name the winning entrant and its objective value
	// (race_verdict, gen_summary, autotune_verdict).
	Winner    string   `json:"winner,omitempty"`
	Objective *float64 `json:"objective,omitempty"`
	// Gen is the autoflow generation index (gen_summary), or the number of
	// generations run (autotune_verdict).
	Gen int `json:"gen,omitempty"`
}

// Tracer consumes the engine's event stream. Emit is called from the
// interpreter goroutine only; implementations need not be safe for
// concurrent use unless shared across contexts.
type Tracer interface {
	Emit(Event)
}

// JSONLTracer writes one JSON object per line. Safe for concurrent use.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLTracer wraps w in a line-oriented JSON tracer.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return &JSONLTracer{w: w} }

// Emit writes the event as one JSONL record. Write errors are sticky and
// silence further output (the flow must not die because a trace disk
// filled).
func (t *JSONLTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	b = append(b, '\n')
	_, t.err = t.w.Write(b)
}

// Err returns the first write error, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// MultiTracer fans events out to several tracers.
type MultiTracer []Tracer

// Emit forwards the event to every tracer.
func (m MultiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// emit sends an event to the context's tracer, stamping the sequence
// number. No-op without a tracer, so untraced runs pay one nil check.
func (c *Context) emit(e Event) {
	if c.Trace == nil {
		return
	}
	c.seq++
	e.Seq = c.seq
	c.Trace.Emit(e)
}

func fptr(v float64) *float64 { return &v }
