// Package tps is a reproduction of "Transformational Placement and
// Synthesis" (Donath et al., DATE 2000): an integrated physical-synthesis
// engine in which placement is decomposed into transforms that mix freely
// with logic-synthesis transforms, all coupled to incremental timing and
// wire-length analyzers, producing a single converging flow from a bare
// netlist to a legally placed, routed, sized design.
//
// Quick start:
//
//	d := tps.NewDesign(tps.DesignParams{NumGates: 2000, Levels: 10, Seed: 1})
//	m, err := d.RunTPS(tps.DefaultTPSOptions())
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("worst slack %.0f ps, cycle %.0f ps\n", m.WorstSlack, m.CycleAchieved)
//
// The package also implements the traditional synthesize–place–resynthesize
// baseline (RunSPR) that the paper's Table 1 compares against, a global
// router for the Figure 2 wire-load study, and a deterministic synthetic
// design generator standing in for the paper's proprietary testcases.
package tps

import (
	"context"
	"io"
	"time"

	"tps/internal/autoflow"
	"tps/internal/cell"
	"tps/internal/clockscan"
	"tps/internal/congestion"
	"tps/internal/core"
	"tps/internal/gen"
	"tps/internal/netio"
	"tps/internal/netlist"
	"tps/internal/noise"
	"tps/internal/place"
	"tps/internal/portfolio"
	"tps/internal/power"
	"tps/internal/route"
	"tps/internal/scenario"
	"tps/internal/timing"
)

// DesignParams configures the synthetic design generator (see
// internal/gen for field documentation).
type DesignParams = gen.Params

// Metrics is a flow result: the Table 1 columns plus auxiliary measures.
type Metrics = scenario.Metrics

// TPSOptions tunes the TPS scenario of Figure 5.
type TPSOptions = core.TPSOptions

// SPROptions tunes the baseline synthesize–place–resynthesize flow.
type SPROptions = core.SPROptions

// Histogram is a Figure 2 wire-load prediction-error histogram.
type Histogram = route.Histogram

// CongestionReport is the cut-line congestion summary.
type CongestionReport = congestion.Report

// AnalyzerStats carries the analyzers' effort counters (stale Steiner
// trees, tree rebuilds, congestion passes, timing recomputes) and the FM
// partitioner's gain-structure traffic.
type AnalyzerStats = scenario.AnalyzerStats

// Library is the standard-cell library type.
type Library = cell.Library

// DefaultTPSOptions mirrors the paper's scenario parameters.
func DefaultTPSOptions() TPSOptions { return core.DefaultTPSOptions() }

// DefaultSPROptions mirrors a conventional baseline flow.
func DefaultSPROptions() SPROptions { return core.DefaultSPROptions() }

// DefaultLibrary returns the built-in synthetic standard-cell library.
func DefaultLibrary() *Library { return cell.Default() }

// Table1Params returns the generator configuration for the paper's design
// Des<i> (1–5), scaled by scale (1.0 ≈ paper-sized cell counts), or an
// error for any other i.
func Table1Params(i int, scale float64) (DesignParams, error) { return gen.Des(i, scale) }

// CycleImprovementPct computes Table 1's "% cycle time impr." between an
// SPR metrics record and a TPS one.
func CycleImprovementPct(spr, tps Metrics) float64 {
	return scenario.CycleImprovementPct(spr, tps)
}

// Scenario is a parsed scenario script: an ordered sequence of transform
// steps with status triggers, loadable at runtime and executed by the
// scenario engine (which also runs the built-in TPS and SPR flows).
type Scenario = scenario.Script

// Transform describes a registered flow building block.
type Transform = scenario.Transform

// TraceEvent is one structured record of the engine's event stream.
type TraceEvent = scenario.Event

// Tracer consumes scenario trace events.
type Tracer = scenario.Tracer

// EvFlowEnd is the terminal trace record an embedder (tpsflow, tpsd)
// appends after the engine finishes, fails, or is canceled — the one
// event a stream consumer can always wait for. The engine itself never
// emits it.
const EvFlowEnd = scenario.EvFlowEnd

// NewJSONLTracer returns a Tracer writing one JSON object per line to w.
func NewJSONLTracer(w io.Writer) Tracer { return scenario.NewJSONLTracer(w) }

// ParseScenario parses a scenario script. Step names resolve against the
// transform registry, so a script that parses also runs.
func ParseScenario(text string) (*Scenario, error) { return scenario.Parse(text) }

// LoadScenario reads and parses a scenario script from r.
func LoadScenario(r io.Reader) (*Scenario, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return scenario.Parse(string(b))
}

// ListTransforms returns every registered transform, sorted by name.
func ListTransforms() []*Transform { return scenario.List() }

// TPSScript renders the built-in Figure 5 flow as a scenario script —
// the exact text RunTPS executes.
func TPSScript(opt TPSOptions) string { return core.TPSScript(opt) }

// SPRScript renders the built-in baseline flow as a scenario script.
func SPRScript(opt SPROptions) string { return core.SPRScript(opt) }

// RaceSpec configures a portfolio race: N scenario entrants forked from
// one design checkpoint, run concurrently, judged by a traced objective
// with deterministic seed-ordered tie-breaking. See internal/portfolio.
type RaceSpec = portfolio.Spec

// RaceEntrant is one competitor in a portfolio race.
type RaceEntrant = portfolio.Entrant

// RaceVerdict is one entrant's outcome.
type RaceVerdict = portfolio.Verdict

// RaceResult is a race outcome: winner index, the winner's final design
// (adopt it with Adopt), and per-entrant verdicts.
type RaceResult = portfolio.Result

// ErrNoWinner reports a race in which no entrant finished.
var ErrNoWinner = portfolio.ErrNoWinner

// EvRaceVerdict is the single race-verdict record a portfolio race
// appends to its trace stream after every entrant's flow_end.
const EvRaceVerdict = scenario.EvRaceVerdict

// ParseRaceSpec parses the `tpsflow -portfolio` spec format. resolve
// maps each entrant's flow=/script= reference to scenario text.
func ParseRaceSpec(text string, resolve func(flow, script string) (string, error)) (*RaceSpec, error) {
	return portfolio.ParseSpec(text, resolve)
}

// AutotuneSpec configures an autoflow search: a base scenario script, an
// objective, the µ+λ loop shape, mutation weights, frozen steps, and the
// parameter domains mutation may draw from. See internal/autoflow.
type AutotuneSpec = autoflow.Spec

// AutotuneResult is a search outcome: the winning canonical script, its
// measurements and final design (adopt it with Adopt), the hand-written
// baseline's objective, and per-generation summaries.
type AutotuneResult = autoflow.Result

// MutationWeights biases the autoflow operator draw.
type MutationWeights = autoflow.MutationWeights

// ParamDomain declares one tunable parameter's legal values (int/float
// range or enum). Transforms declare domains for their step arguments in
// the registry; autotune specs add scenario-level `set` domains.
type ParamDomain = scenario.ParamDomain

// ErrNoAutotuneWinner reports a search in which no variant finished.
var ErrNoAutotuneWinner = autoflow.ErrNoWinner

// EvGenSummary / EvAutotuneVerdict are the autoflow search's own trace
// records: one gen_summary per generation, one terminal
// autotune_verdict after the last generation's variant flows.
const (
	EvGenSummary      = scenario.EvGenSummary
	EvAutotuneVerdict = scenario.EvAutotuneVerdict
)

// ParseAutotuneSpec parses the `tpsflow -autotune` spec format. resolve
// maps the spec's flow=/script= base-scenario reference to script text.
func ParseAutotuneSpec(text string, resolve func(flow, script string) (string, error)) (*AutotuneSpec, error) {
	return autoflow.ParseSpec(text, resolve)
}

// Design is a netlist with its physical frame, constraint, and analyzer
// stack. One Design owns its netlist; run exactly one flow per Design and
// regenerate (same seed = same design) to run another.
type Design struct {
	ctx *scenario.Context
	gd  *gen.Design
}

// NewDesign generates a synthetic design and attaches the analyzers.
func NewDesign(p DesignParams) *Design {
	gd := gen.Generate(cell.Default(), p)
	return &Design{ctx: scenario.NewContext(gd, p.Seed), gd: gd}
}

// Load reads a .tpn netlist and attaches the analyzers.
func Load(r io.Reader) (*Design, error) {
	gd, err := netio.Read(r, cell.Default())
	if err != nil {
		return nil, err
	}
	return &Design{ctx: scenario.NewContext(gd, 1), gd: gd}, nil
}

// Adopt returns a race or search winner's final design
// (RaceResult.WinnerDesign, AutotuneResult.BestDesign) as a fresh Design
// with its own analyzers: the design Load would read back from the
// winner's saved .tpn, built without the text.
func Adopt(winner *netio.State) *Design {
	c, gd := scenario.ForkContext(winner, 1)
	return &Design{ctx: c, gd: gd}
}

// Save writes the design's current netlist and placement as .tpn.
func (d *Design) Save(w io.Writer) error { return netio.Write(w, d.gd) }

// SetLog directs flow progress lines to w (nil silences them).
func (d *Design) SetLog(w io.Writer) { d.ctx.Log = w }

// SetWorkers sets the analyzer fan-out width (default GOMAXPROCS). The
// evaluation layer is deterministic: metrics are bit-identical for every
// worker count, and 1 restores fully serial analysis.
func (d *Design) SetWorkers(n int) { d.ctx.SetWorkers(n) }

// Netlist exposes the underlying netlist for custom transforms.
func (d *Design) Netlist() *netlist.Netlist { return d.ctx.NL }

// Timing exposes the incremental timing engine.
func (d *Design) Timing() *timing.Engine { return d.ctx.Eng }

// Period returns the clock constraint in ps.
func (d *Design) Period() float64 { return d.ctx.Period }

// Chip returns the die dimensions in µm.
func (d *Design) Chip() (w, h float64) { return d.ctx.ChipW, d.ctx.ChipH }

// Context exposes the full analyzer bundle for advanced composition.
func (d *Design) Context() *scenario.Context { return d.ctx }

// RunTPS executes the transformational placement and synthesis scenario
// (Figure 5) from the bare netlist. It returns the engine's error if the
// run fails, for example on an unknown objective in Context().Params.
func (d *Design) RunTPS(opt TPSOptions) (Metrics, error) { return core.RunTPS(d.ctx, opt) }

// RunSPR executes the traditional baseline flow, returning its error as
// RunTPS does.
func (d *Design) RunSPR(opt SPROptions) (Metrics, error) { return core.RunSPR(d.ctx, opt) }

// RunScenario executes a parsed scenario script through the engine. The
// design's accept/reject counters for protected steps are afterwards
// available via Context().Accepts / Context().Rejects.
func (d *Design) RunScenario(s *Scenario) (Metrics, error) { return scenario.Run(d.ctx, s) }

// RunScenarioContext is RunScenario under a cancellation context:
// canceling ctx stops the flow at the next safe commit point, rolling
// back any protected step in flight so the design stays consistent.
// The returned error wraps ctx's error (test with errors.Is).
func (d *Design) RunScenarioContext(ctx context.Context, s *Scenario) (Metrics, error) {
	return scenario.RunContext(ctx, d.ctx, s)
}

// SetTrace attaches a structured trace-event consumer (nil detaches).
// Applies to custom scenarios and the built-in flows alike.
func (d *Design) SetTrace(t Tracer) { d.ctx.Trace = t }

// Race forks the design's current state into one copy per entrant and
// races the entrants concurrently; the design itself is only read. The
// winner's identity and Metrics are bit-identical at any RaceSpec
// Workers width; adopt the winner with Adopt(Result.WinnerDesign). On
// ctx cancellation every entrant is cooperatively interrupted and the
// error wraps ctx's; ErrNoWinner means no entrant finished.
func (d *Design) Race(ctx context.Context, spec RaceSpec) (*RaceResult, error) {
	return portfolio.Race(ctx, d.gd, spec)
}

// Autotune searches the scenario-script space from the design's current
// state: the spec's base script is mutated through typed operators,
// every generation's variants race as a portfolio from one shared
// snapshot, and the best variant by the traced objective survives. The
// design itself is only read; adopt the winner with
// Adopt(Result.BestDesign). The search is deterministic — same spec and
// seed give a bit-identical winning script, Metrics, and AnalyzerStats
// at any Workers width.
func (d *Design) Autotune(ctx context.Context, spec AutotuneSpec) (*AutotuneResult, error) {
	return autoflow.Search(ctx, netio.CaptureDesign(d.gd), spec)
}

// Evaluate measures the design as it stands, without running a flow.
func (d *Design) Evaluate() Metrics { return d.ctx.Evaluate("current") }

// WorstSlack returns the current worst slack in ps.
func (d *Design) WorstSlack() float64 { return d.ctx.Eng.WorstSlack() }

// WireLength returns the current total Steiner wire length in µm. Only
// the trees of nets touched since the previous call are rebuilt; the
// total then adds every live net's length.
func (d *Design) WireLength() float64 { return d.ctx.St.Total() }

// Congestion re-analyzes wiring demand: it rebuilds the trees of nets
// touched since the last analysis and rasterizes every live net.
func (d *Design) Congestion() CongestionReport { return d.ctx.Cong.Analyze() }

// Stats returns the analyzers' effort counters plus the placement
// partitioner's FM gain-structure counters.
func (d *Design) Stats() AnalyzerStats { return d.ctx.AnalyzerStats() }

// PhaseTimes returns the per-transform wall clock accumulated by the last
// flow run (map key → duration; see scenario.Context.PhaseTimes).
func (d *Design) PhaseTimes() map[string]time.Duration { return d.ctx.PhaseTimes }

// ClockWireLength returns the total clock-net wire length in µm.
func (d *Design) ClockWireLength() float64 { return clockscan.ClockNetLength(d.ctx.NL) }

// ScanWireLength returns the total scan-chain span length in µm.
func (d *Design) ScanWireLength() float64 { return clockscan.ScanLength(d.ctx.NL) }

// CheckLegal verifies row legality of the current placement.
func (d *Design) CheckLegal() error {
	return place.CheckLegal(d.ctx.NL, d.ctx.ChipW, d.ctx.ChipH)
}

// PowerAnalyzer returns a switching-power analyzer over the design's
// shared load calculator (§7 extension).
func (d *Design) PowerAnalyzer() *power.Analyzer {
	return power.New(d.ctx.NL, d.ctx.Calc, d.ctx.Period)
}

// NoiseAnalyzer returns a crosstalk-noise analyzer over the design's bin
// image and Steiner cache (§7 extension).
func (d *Design) NoiseAnalyzer() *noise.Analyzer {
	return noise.New(d.ctx.NL, d.ctx.St, d.ctx.Im, d.ctx.Calc)
}

// WireLoadHistograms routes the placed design and returns the Figure 2
// prediction-error histograms for each requested shortest-net drop
// fraction (the paper shows 0, 0.10, and 0.20). bucketPct is the histogram
// bucket width; maxPct the top edge.
func (d *Design) WireLoadHistograms(drops []float64, bucketPct, maxPct float64) []Histogram {
	res := route.RouteAll(d.ctx.NL, d.ctx.St, d.ctx.Im)
	errs := route.PredictionErrors(d.ctx.NL, d.ctx.St, res)
	out := make([]Histogram, len(drops))
	for i, f := range drops {
		out[i] = route.BuildHistogram(errs, f, bucketPct, maxPct)
	}
	return out
}

// Close detaches the analyzers.
func (d *Design) Close() { d.ctx.Close() }
