// Package scenario is the programmable flow engine of §5: transforms are
// first-class registered objects (name, status window, guard, body), a
// scenario is a loadable script that sequences them by placement status,
// and an interpreter drives the status loop the way Figure 5's hardcoded
// flow used to. A robustness layer checkpoints the design around
// protected steps through netio snapshots and rolls back steps that
// error, overrun their wall-clock budget, or regress the objective; a
// structured trace-event stream reports everything the engine does.
//
// The package deliberately does not import any transform package —
// transform packages import scenario to register themselves, and the
// engine reaches them only through the registry. internal/core wires the
// two sides together.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"tps/internal/congestion"
	"tps/internal/delay"
	"tps/internal/gen"
	"tps/internal/image"
	"tps/internal/netio"
	"tps/internal/netlist"
	"tps/internal/par"
	"tps/internal/partition"
	"tps/internal/steiner"
	"tps/internal/timing"
)

// Context bundles a design with its shared analyzers and, while a
// scenario runs, the interpreter's visible state (status, parameters,
// per-run actors). Exactly one Context should own a netlist at a time
// (analyzers subscribe to edits).
type Context struct {
	NL     *netlist.Netlist
	Period float64
	ChipW  float64
	ChipH  float64
	Seed   int64

	Im   *image.Image
	St   *steiner.Cache
	Calc *delay.Calculator
	Eng  *timing.Engine
	// Cong is the congestion analyzer: each Analyze rasterizes every live
	// net from the Steiner cache's trees, reusing its shard grids, so the
	// scenario loop re-measures congestion at every status at the cost of
	// the stale trees plus one rasterization.
	Cong *congestion.Analyzer

	// Workers is the analyzer fan-out width. The evaluation layer is
	// engineered so results are bit-identical for every value; 1 restores
	// fully serial analysis. Set through SetWorkers so the analyzers stay
	// in sync.
	Workers int

	// Log receives progress lines when non-nil.
	Log io.Writer

	// PhaseTimes accumulates per-transform wall clock across a flow run.
	// Purely observational: it never influences any decision, so
	// determinism is untouched.
	PhaseTimes map[string]time.Duration

	// ---- Interpreter state (valid while Run executes a scenario). ----

	// Status and PrevStatus frame the current placement-status advance:
	// the loop moved PrevStatus → Status this iteration. Status triggers
	// ("at 30..50") test against this pair.
	Status     int
	PrevStatus int

	// ScenarioName is the running script's name (the default flow label
	// for the evaluate step).
	ScenarioName string

	// Params are the scenario-level settings ("set key value" lines plus
	// anything the embedding flow injects). Transform bodies and actor
	// factories read tuning from here.
	Params map[string]string

	// Scratch carries per-run actor objects (placer, weighter, …) and any
	// cross-step state a scenario needs. Reset by each Run.
	Scratch map[string]any

	// Trace receives structured events when non-nil.
	Trace Tracer

	// M is the metrics record the running scenario is filling in (the
	// "evaluate" step captures it; "route" and "remeasure" update it).
	M *Metrics

	// FM holds the placement partitioner's gain-structure counters, set by
	// the placement transforms after each partition/reflow. The counters
	// are deterministic and worker-invariant, so they participate in the
	// AnalyzerStats bit-identity contract.
	FM partition.Stats

	// Accepts and Rejects count protected-step outcomes for the run.
	Accepts, Rejects int

	repeatIters int // executed repeat-block iterations (Metrics.Iterations)
	seq         int // trace sequence number

	// runCtx is the cancellation context of the Run in progress (nil
	// outside a run, or for a run started without one). The interpreter
	// checks it between steps; transform bodies observe it through
	// Interrupted at their own safe commit points.
	runCtx context.Context
	// ckpt and usage are the checkpoint of the protected step in flight:
	// the design and the bin usage it is rolled back to on rejection.
	// Every protected step overwrites them in place (checkpoint).
	ckpt  *netio.State
	usage []float64

	// stepDeadline, when non-zero, is the wall-clock bound of the
	// protected step currently executing (its maxsec budget). Interrupted
	// trips once it passes, so a stuck transform body that polls the hook
	// is cut off instead of running unbounded.
	stepDeadline time.Time
}

// ErrStepTimeout is returned by Interrupted once the executing protected
// step has outrun its maxsec budget. The engine rolls the step back and
// records it as rejected with reason "timeout".
var ErrStepTimeout = errors.New("scenario: step exceeded its maxsec budget")

// Interrupted is the cooperative cancellation hook for transform bodies:
// long loops call it at safe commit points (after an accepted or reverted
// change, never mid-edit) and unwind with the returned error, leaving the
// design consistent. It reports the run's context cancellation first,
// then the executing protected step's maxsec deadline. It reads only the
// clock and the context — never an analyzer — so polling it cannot
// perturb determinism or counter parity.
func (c *Context) Interrupted() error {
	if c.runCtx != nil {
		if err := c.runCtx.Err(); err != nil {
			return err
		}
	}
	if !c.stepDeadline.IsZero() && time.Now().After(c.stepDeadline) {
		return ErrStepTimeout
	}
	return nil
}

// track starts a named phase timer; the returned func stops it and adds
// the elapsed time to PhaseTimes[name].
func (c *Context) track(name string) func() {
	if c.PhaseTimes == nil {
		c.PhaseTimes = make(map[string]time.Duration)
	}
	t0 := time.Now()
	return func() { c.PhaseTimes[name] += time.Since(t0) }
}

// Track exposes phase timing to transform bodies registered outside this
// package (the placer's shim splits partition/reflow time, for example).
func (c *Context) Track(name string) func() { return c.track(name) }

// NewContext builds the analyzer stack over a generated design, starting
// in gain-based timing mode (the early-flow model of §5).
func NewContext(d *gen.Design, seed int64) *Context {
	im := image.New(d.ChipW, d.ChipH, d.NL.Lib.Tech.RowHeight, 0.72)
	st := steiner.NewCache(d.NL)
	calc := delay.NewCalculator(d.NL, st, delay.GainBased)
	eng := timing.New(d.NL, calc, d.Period)
	c := &Context{
		NL: d.NL, Period: d.Period, ChipW: d.ChipW, ChipH: d.ChipH,
		Seed: seed, Im: im, St: st, Calc: calc, Eng: eng,
		Cong: congestion.NewAnalyzer(d.NL, st, im),
	}
	c.SetWorkers(par.Workers())
	return c
}

// ForkContext forks s and builds the analyzer stack over the fork, as
// NewContext does, seeded with what the State computes once for all its
// forks: the Steiner cache starts from the State's shared trees
// (netio.State.Trees), so a fork rebuilds only the trees its own edits
// touch, and the timing engine installs the State's first full timing
// pass of its delay mode instead of computing it (timing.Engine.Seed),
// if it asks for that pass before any edit. The State builds that pass
// on first demand, once per delay mode, with a fresh analyzer stack on a
// private fork seeded with the same trees, at the asking engine's
// Workers (firstPass). Both are exact: the seeded trees and the
// installed pass are those a fresh stack computes on the fork, and the
// engine installs only while Seed's conditions guarantee it. Only the
// counters of work not done fall (SteinerRebuilds, TimingRecomputes,
// the calculator's Solves). It returns the fork too.
func ForkContext(s *netio.State, seed int64) (*Context, *gen.Design) {
	gd := s.Fork()
	c := NewContext(gd, seed)
	c.St.Seed(s.Trees())
	c.Eng.Seed(func(m delay.Mode, workers int) *timing.Pass { return firstPass(s, m, workers) })
	return c, gd
}

// passKey keys a State's first timing pass (netio.State.Derived) by
// delay mode.
type passKey struct{ mode delay.Mode }

// firstPass returns s's shared first timing pass in mode m, computing it
// on first demand over at most workers goroutines.
func firstPass(s *netio.State, m delay.Mode, workers int) *timing.Pass {
	return s.Derived(passKey{m}, func(d *gen.Design) any {
		return timing.FirstPass(d.NL, d.Period, s.Trees(), m, workers)
	}).(*timing.Pass)
}

// SetWorkers sets the analyzer fan-out width and propagates it to the
// Steiner cache, the congestion analyzer, and the timing engine. n < 1 is
// clamped to 1 (serial).
func (c *Context) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.Workers = n
	c.St.Workers = n
	c.Eng.Workers = n
	c.Cong.Workers = n
}

// Close detaches the analyzers from the netlist.
func (c *Context) Close() {
	c.Eng.Close()
	c.Calc.Close()
	c.St.Close()
}

// AnalyzerStats exposes the analyzers' effort counters: how much stale
// work the Steiner cache is carrying, how many trees it built, how many
// congestion passes and timing recomputations ran, and the FM traffic.
type AnalyzerStats struct {
	// SteinerDirty is the number of live nets whose Steiner tree is
	// stale: the trees the next Total builds.
	SteinerDirty int
	// SteinerRebuilds counts Steiner tree constructions since the cache
	// was created.
	SteinerRebuilds int
	// CongestionFullPasses counts congestion passes; every pass is full.
	// CongestionIncrementalPasses is always 0; it remains because
	// perfbench still reads it.
	CongestionFullPasses        int
	CongestionIncrementalPasses int
	// TimingRecomputes counts incremental timing node recomputations. A
	// run forked through ForkContext that installs its State's first
	// timing pass skips that pass's recomputations, so it counts fewer
	// than a NewContext run of the same flow on the same design.
	TimingRecomputes int
	// FM carries the placement partitioner's gain-structure traffic:
	// pushes/pops through the bucket queue, stale pops discarded, neighbor
	// gain updates, and live-entry compactions.
	FM partition.Stats
}

// AnalyzerStats returns the current analyzer counters.
func (c *Context) AnalyzerStats() AnalyzerStats {
	return AnalyzerStats{
		SteinerDirty:         c.St.DirtyNets(),
		SteinerRebuilds:      c.St.Rebuilds,
		CongestionFullPasses: c.Cong.Passes,
		TimingRecomputes:     c.Eng.Recomputes,
		FM:                   c.FM,
	}
}

// Logf writes a progress line when a log sink is attached. Exported for
// transform shims; never read any analyzer inside the argument list of a
// call that legacy flows didn't, or counter parity breaks.
//
// Each line is formatted into a buffer first and handed to the sink as a
// single Write, so concurrent flows whose contexts share a sink that
// serializes whole Write calls (an *os.File such as stderr does)
// interleave at whole-line granularity instead of corrupting each other's
// output mid-line. The preferred arrangement is still per-job writer
// ownership: one Context, one sink.
func (c *Context) Logf(format string, args ...interface{}) {
	if c.Log != nil {
		c.Log.Write(fmt.Appendf(nil, format+"\n", args...))
	}
}

// Metrics mirrors the Table 1 columns plus the auxiliary quantities the
// experiments track.
type Metrics struct {
	Flow   string
	ICells int
	// AreaUm2 is the total placeable cell area.
	AreaUm2 float64
	// WorstSlack in ps (negative = failing).
	WorstSlack float64
	// TNS in ps.
	TNS float64
	// CycleAchieved = Period − WorstSlack: the clock the design could
	// actually run at.
	CycleAchieved float64
	// Congestion cut counts (Table 1 "Horiz pk/avg", "Vert pk/avg").
	HorizPeak, HorizAvg float64
	VertPeak, VertAvg   float64
	// SteinerWireUm is the total Steiner wire length.
	SteinerWireUm float64
	// RoutedWireUm and RouteOverflows come from the global router.
	RoutedWireUm   float64
	RouteOverflows int
	// CPUSeconds is wall time for the flow.
	CPUSeconds float64
	// Iterations is the number of outer synthesis↔placement loops the
	// flow needed (1 for TPS by construction).
	Iterations int
}

// Evaluate measures the current design state (timing, area, congestion)
// into a Metrics record.
func (c *Context) Evaluate(flow string) Metrics {
	m := Metrics{Flow: flow, Iterations: 1}
	c.NL.Gates(func(g *netlist.Gate) {
		if !g.IsPad() {
			m.ICells++
		}
	})
	m.AreaUm2 = c.NL.TotalCellArea()
	m.WorstSlack = c.Eng.WorstSlack()
	m.TNS = c.Eng.TNS()
	m.CycleAchieved = c.Period - m.WorstSlack
	rep := c.Cong.Analyze()
	m.HorizPeak, m.HorizAvg = rep.HorizPeak, rep.HorizAvg
	m.VertPeak, m.VertAvg = rep.VertPeak, rep.VertAvg
	m.SteinerWireUm = c.St.Total()
	return m
}

// CycleImprovementPct computes Table 1's "% cycle time impr." between an
// SPR run and a TPS run of the same design.
func CycleImprovementPct(spr, tps Metrics) float64 {
	if spr.CycleAchieved <= 0 {
		return 0
	}
	return (spr.CycleAchieved - tps.CycleAchieved) / spr.CycleAchieved * 100
}

// SyncImage rebuilds the bin image's area usage from the current gate
// positions (the end-of-flow "trust only geometry" refresh).
func (c *Context) SyncImage() {
	t := c.NL.Lib.Tech
	c.Im.ClearUsage()
	c.NL.Gates(func(g *netlist.Gate) {
		if !g.IsPad() {
			c.Im.Deposit(g.X, g.Y, g.Area(t))
		}
	})
}
