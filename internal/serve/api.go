package serve

import (
	"time"

	"tps/internal/autoflow"
	"tps/internal/scenario"
)

// Job states, in lifecycle order. Terminal states are JobDone,
// JobFailed, and JobCanceled.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// SubmitRequest is the POST /jobs body. Exactly one of Design (a stored
// design's name) or Netlist (inline .tpn text) selects the design.
type SubmitRequest struct {
	// Design names a previously uploaded design. The job runs on
	// private forks of the design's upload-time snapshot (warm: no
	// re-parse), one job at a time per stored design.
	Design string `json:"design,omitempty"`
	// Netlist is an inline .tpn netlist; the job runs on private forks
	// of it.
	Netlist string `json:"netlist,omitempty"`
	// Scenario is the scenario script to run (required).
	Scenario string `json:"scenario"`
	// Workers requests an analyzer fan-out width; the grant is capped
	// by the server's free budget and floored at 1. 0 means "whatever
	// is free". Results are bit-identical at any width.
	Workers int `json:"workers,omitempty"`
	// Seed is the flow seed (default 1).
	Seed int64 `json:"seed,omitempty"`

	// Entrants, when non-empty, turns the job into a portfolio race: the
	// design is forked once per entrant, the entrants run concurrently
	// (the worker grant becomes the race width), and the job's Metrics
	// are the winner's. The trace stream then carries every entrant's
	// events tagged with the entrant name, one flow_end per entrant, a
	// race_verdict record, and finally the job's own terminal flow_end.
	// Scenario becomes the default script for entrants that set none.
	Entrants []RaceEntrant `json:"entrants,omitempty"`
	// Objective is the race objective, named as in a scenario's
	// `set objective` (default slack).
	Objective string `json:"objective,omitempty"`
	// DeadlineSec caps the race's wall clock (0 = none).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`

	// Autotune, when set, turns the job into an autoflow search over the
	// scenario space (mutually exclusive with Entrants): the base script
	// is mutated generation by generation, every generation races from
	// one shared snapshot inside the job's worker grant, and the job's
	// Metrics are the best variant's. The trace stream carries each
	// evaluated variant's tagged flow, one gen_summary per generation,
	// one autotune_verdict, then the job's terminal flow_end.
	Autotune *AutotuneRequest `json:"autotune,omitempty"`
}

// AutotuneRequest configures an autoflow search job. Zero values take
// the autoflow package defaults.
type AutotuneRequest struct {
	// Scenario is the base script to mutate (default: the request's
	// Scenario field).
	Scenario string `json:"scenario,omitempty"`
	// Objective is the search objective, named as in a scenario's
	// `set objective` (default slack).
	Objective string `json:"objective,omitempty"`
	// Population (µ), Offspring (λ), Generations, and Stall shape the
	// evolutionary loop; see autoflow.Spec.
	Population  int `json:"population,omitempty"`
	Offspring   int `json:"offspring,omitempty"`
	Generations int `json:"generations,omitempty"`
	Stall       int `json:"stall,omitempty"`
	// Seed drives the whole search (default: the request's Seed).
	Seed int64 `json:"seed,omitempty"`
	// DeadlineSec caps each generation's race wall clock (0 = none).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// Freeze / Insert / Weights / Params tune the mutation space; see
	// autoflow.Spec.
	Freeze  []string                  `json:"freeze,omitempty"`
	Insert  []string                  `json:"insert,omitempty"`
	Weights *autoflow.MutationWeights `json:"weights,omitempty"`
	Params  []scenario.ParamDomain    `json:"params,omitempty"`
}

// RaceEntrant is one competitor in a race submission.
type RaceEntrant struct {
	// Name tags the entrant's trace events and verdict (default
	// "e<index>"; must be unique within the race).
	Name string `json:"name,omitempty"`
	// Scenario is the entrant's script (default: the request's).
	Scenario string `json:"scenario,omitempty"`
	// Seed is the entrant's flow seed (default: its 1-based index, so a
	// list of otherwise-identical entrants races seed variants).
	Seed int64 `json:"seed,omitempty"`
	// Bound optionally tightens the entrant's best-possible objective
	// for early-stop; see portfolio.Entrant.Bound.
	Bound *float64 `json:"bound,omitempty"`
	// Params overlays the entrant script's `set` parameters.
	Params map[string]string `json:"params,omitempty"`
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
}

// JobInfo is one job's externally visible status.
type JobInfo struct {
	ID     string `json:"id"`
	Design string `json:"design,omitempty"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	// Workers is the granted fan-out width (0 until the job starts).
	Workers int `json:"workers,omitempty"`
	// Accepts/Rejects count protected-step outcomes.
	Accepts int `json:"accepts,omitempty"`
	Rejects int `json:"rejects,omitempty"`

	QueuedAt   time.Time  `json:"queued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	// Metrics is the flow's final evaluation (terminal done state only).
	// For a race job these are the winner's metrics.
	Metrics *scenario.Metrics `json:"metrics,omitempty"`

	// Race summarizes a portfolio-race job (nil for single-flow jobs;
	// set once the race has ended).
	Race *RaceInfo `json:"race,omitempty"`

	// Autotune summarizes an autoflow-search job (nil otherwise; set
	// once the search has ended).
	Autotune *AutotuneInfo `json:"autotune,omitempty"`
}

// AutotuneInfo is an autotune job's outcome summary.
type AutotuneInfo struct {
	Objective string `json:"objective"`
	// Winner / WinnerScript are the best variant's name and canonical
	// script text; empty when no variant finished.
	Winner       string `json:"winner,omitempty"`
	WinnerScript string `json:"winner_script,omitempty"`
	// WinnerObjective / BaseObjective compare the best variant against
	// the unmutated base script (nil when the respective flow failed).
	WinnerObjective *float64 `json:"winner_objective,omitempty"`
	BaseObjective   *float64 `json:"base_objective,omitempty"`
	// Generations / Evaluated / Restarts are search-loop totals.
	Generations int `json:"generations"`
	Evaluated   int `json:"evaluated"`
	Restarts    int `json:"restarts,omitempty"`
}

// RaceInfo is a race job's outcome summary.
type RaceInfo struct {
	Objective string `json:"objective"`
	// Winner is the winning entrant's name; empty with WinnerIndex -1
	// when no entrant finished.
	Winner      string        `json:"winner,omitempty"`
	WinnerIndex int           `json:"winner_index"`
	Verdicts    []RaceVerdict `json:"verdicts"`
}

// RaceVerdict is one entrant's outcome in a race summary.
type RaceVerdict struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Status is finished | failed | dominated | deadline | canceled.
	Status string `json:"status"`
	// Objective is the judged value (finished entrants only).
	Objective float64 `json:"objective"`
	DurMs     float64 `json:"dur_ms"`
	Error     string  `json:"error,omitempty"`
	Accepts   int     `json:"accepts,omitempty"`
	Rejects   int     `json:"rejects,omitempty"`
}

// DesignInfo describes one stored design.
type DesignInfo struct {
	Name  string `json:"name"`
	Gates int    `json:"gates"`
	Nets  int    `json:"nets"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}
