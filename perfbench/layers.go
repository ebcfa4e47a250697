package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tps/internal/scenario"
)

// layerOf maps every registered transform to the one module layer whose
// work it does: the package that registers it, except that the engine's
// congest builtin runs the congestion analyzer and qplace (package
// quadratic) is a placer. TestLayerMapComplete fails when a transform is
// registered without an entry here.
var layerOf = map[string]string{
	"partition": "place", "spread": "place", "sync_placer": "place",
	"legalize": "place", "detailed": "place", "qplace": "place",

	"assign_gains": "sizing", "discretize": "sizing", "discretize_actual": "sizing",
	"size_area": "sizing", "size_speed": "sizing", "infootprint": "sizing",

	"clone": "synth", "buffer": "synth", "pinswap": "synth", "remap": "synth",
	"electrical": "synth",

	"migrate":   "migrate",
	"relieve":   "relocate",
	"decongest": "relocate",
	"weight":    "netweight",

	"clocksched": "clockscan", "clock_opt": "clockscan", "scan_opt": "clockscan",

	"congest": "congestion",
	"route":   "route",

	"mode": "scenario", "trackbin": "scenario", "bindim0": "scenario",
	"sync": "scenario", "subdivide_full": "scenario", "evaluate": "scenario",
	"remeasure": "scenario", "logslack": "scenario",
	"freeze_nonsignal": "scenario", "restore_weights": "scenario",
}

// span is one timed interval of a traced run, nested workload → job →
// entrant → block → step. Times are milliseconds since the run began.
// Step spans carry their layer and the analyzer counter deltas read
// around them.
type span struct {
	ID               int     `json:"id"`
	Parent           int     `json:"parent"`
	Kind             string  `json:"kind"`
	Name             string  `json:"name"`
	Layer            string  `json:"layer,omitempty"`
	Job              int     `json:"job"`
	Entrant          string  `json:"entrant,omitempty"`
	StartMs          float64 `json:"start_ms"`
	EndMs            float64 `json:"end_ms"`
	TimingRecomputes int     `json:"timing_recomputes,omitempty"`
	SteinerRebuilds  int     `json:"steiner_rebuilds,omitempty"`
}

func (s *span) durMs() float64 { return s.EndMs - s.StartMs }

// recorder keeps a traced run's spans in memory until the run ends.
// Safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) ms(t time.Time) float64 {
	return float64(t.Sub(r.t0)) / float64(time.Millisecond)
}

// open starts a span at t and returns its id (ids start at 1; parent 0
// is the root).
func (r *recorder) open(parent int, kind, name string, job int, entrant string, t time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Kind: kind, Name: name,
		Job: job, Entrant: entrant, StartMs: r.ms(t), EndMs: r.ms(t)})
	return id
}

// close ends span id at t; edit, if non-nil, fills in step details.
func (r *recorder) close(id int, t time.Time, edit func(*span)) {
	if id <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndMs = r.ms(t)
	if edit != nil {
		edit(s)
	}
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// flowTracer turns one in-process flow's event stream into an entrant
// span (scenario_begin to scenario_end) with block and step spans under
// it. At step_begin and step_end it reads the design's analyzer
// counters (pure reads) and charges the delta to the step. Status
// advances of a status block are timed as rounds.
type flowTracer struct {
	rec     *recorder
	stats   func() scenario.AnalyzerStats
	job     int
	entrant string
	parent  int

	flow, block, step int
	before            scenario.AnalyzerStats
	roundStart        time.Time
	rounds            []float64 // status-round wall times, ms
}

func newFlowTracer(rec *recorder, stats func() scenario.AnalyzerStats, job int, entrant string, parent int) *flowTracer {
	return &flowTracer{rec: rec, stats: stats, job: job, entrant: entrant, parent: parent}
}

func (t *flowTracer) Emit(e scenario.Event) {
	now := time.Now()
	switch e.Type {
	case scenario.EvScenarioBegin:
		t.flow = t.rec.open(t.parent, "entrant", t.entrant, t.job, t.entrant, now)
	case scenario.EvScenarioEnd:
		t.rec.close(t.flow, now, nil)
	case scenario.EvBlockBegin:
		t.block = t.rec.open(t.flow, "block", e.Block, t.job, t.entrant, now)
	case scenario.EvBlockEnd:
		t.endRound(now)
		t.rec.close(t.block, now, nil)
		t.block = 0
	case scenario.EvStatus:
		if e.Iter == 0 {
			t.endRound(now)
			t.roundStart = now
		}
	case scenario.EvStepBegin:
		t.before = t.stats()
		t.step = t.rec.open(t.block, "step", e.Step, t.job, t.entrant, now)
	case scenario.EvStepEnd, scenario.EvReject:
		after := t.stats()
		before := t.before
		t.rec.close(t.step, now, func(s *span) {
			s.Layer = layerOf[s.Name]
			s.TimingRecomputes = after.TimingRecomputes - before.TimingRecomputes
			s.SteinerRebuilds = after.SteinerRebuilds - before.SteinerRebuilds
		})
		t.step = 0
	}
}

func (t *flowTracer) endRound(now time.Time) {
	if !t.roundStart.IsZero() {
		t.rounds = append(t.rounds, float64(now.Sub(t.roundStart))/float64(time.Millisecond))
		t.roundStart = time.Time{}
	}
}

// addStepLayers charges every step span to its layer: <layer>.ms is the
// steps' self time (steps are leaves), and the counter deltas are summed.
// Totals are divided by ops to give per-operation values.
func addStepLayers(v values, spans []span, ops int) {
	if ops < 1 {
		ops = 1
	}
	for _, s := range spans {
		if s.Kind != "step" {
			continue
		}
		l := layerOf[s.Name]
		v[l+".ms"] += s.durMs() / float64(ops)
		v[l+".timing_recomputes"] += float64(s.TimingRecomputes) / float64(ops)
		v[l+".steiner_rebuilds"] += float64(s.SteinerRebuilds) / float64(ops)
	}
}

// interpreterOverheadMs is the time entrant spans spent outside their
// steps — the scenario interpreter's own cost — per operation.
func interpreterOverheadMs(spans []span, ops int) float64 {
	if ops < 1 {
		ops = 1
	}
	var entrants, steps float64
	for i := range spans {
		switch spans[i].Kind {
		case "entrant":
			entrants += spans[i].durMs()
		case "step":
			steps += spans[i].durMs()
		}
	}
	return (entrants - steps) / float64(ops)
}
