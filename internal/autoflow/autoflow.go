// Package autoflow searches the scenario-script space: it mutates a base
// script through typed operators (step reordering, window shifts,
// parameter mutation from declared domains, step insertion/deletion,
// crossover), races each generation's variants as a portfolio from one
// shared design snapshot, keeps the best by traced objective, and
// iterates — a µ+λ evolutionary loop with an optional stall-based
// restart.
//
// # Determinism
//
// The whole search is a pure function of (snapshot, Spec): one Seed
// drives SplitMix64-derived per-variant mutation streams
// (par.DeriveSeed(Seed, generation, child)), every variant's flow runs
// from the same forked snapshot with the same flow seed, and survivor
// selection ranks by (finished, objective, creation order) — a total
// order independent of evaluation scheduling. Generation races inherit
// the portfolio package's guarantee that a verdict depends only on the
// entrant's own spec (early-stop is disabled here because every fitness
// value matters), so the winning script, its Metrics, and its
// AnalyzerStats are bit-identical at any Workers width and under any
// evaluation-order permutation. A Deadline is the one wall-clock escape
// hatch, exactly as in a portfolio race.
package autoflow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"tps/internal/netio"
	"tps/internal/portfolio"
	"tps/internal/scenario"
)

// MutationWeights biases the operator draw. Zero values of the whole
// struct select the defaults (reorder 1, shift 1, param 4, insert 1,
// delete 1, cross 1); an individual zero weight disables that operator.
type MutationWeights struct {
	Reorder int `json:"reorder,omitempty"`
	Shift   int `json:"shift,omitempty"`
	Param   int `json:"param,omitempty"`
	Insert  int `json:"insert,omitempty"`
	Delete  int `json:"delete,omitempty"`
	Cross   int `json:"cross,omitempty"`
}

func (w MutationWeights) zero() bool { return w == MutationWeights{} }

// DefaultWeights is the operator bias used when Spec.Weights is zero:
// parameter mutation dominates (the cheapest, most often profitable
// move), the structural operators share the rest.
func DefaultWeights() MutationWeights {
	return MutationWeights{Reorder: 1, Shift: 1, Param: 4, Insert: 1, Delete: 1, Cross: 1}
}

// Spec configures a search. Zero values take the documented defaults.
type Spec struct {
	// Name labels the search in traces and results.
	Name string
	// Script is the base scenario script text — generation 0's first
	// variant and the ancestor of every mutant.
	Script string
	// Objective selects the judged metric by scenario.CheckObjective's
	// vocabulary (default slack) — larger is better, as everywhere in the
	// scenario engine.
	Objective string
	// Population is µ, the survivors kept per generation (default 4).
	Population int
	// Offspring is λ, the children bred per generation (default 8).
	// 1+Offspring must fit a portfolio race (portfolio.MaxEntrants).
	Offspring int
	// Generations caps the loop, counting generation 0 (default 4).
	Generations int
	// Stall restarts the population (survivors reset to {best, base})
	// after this many generations without a global-best improvement.
	// 0 disables restarts.
	Stall int
	// Seed drives every mutation stream and every variant's flow seed.
	Seed int64
	// Deadline caps each generation's race wall clock; zero means none.
	Deadline time.Duration
	// Workers bounds how many variants evaluate concurrently (default
	// par.Workers()); each variant's flow runs single-threaded, exactly
	// like portfolio entrants.
	Workers int
	// Freeze lists transform names the mutator must not move, delete, or
	// retune. The measurement steps ("evaluate", "remeasure", "route")
	// are always frozen — a search that can delete its own fitness
	// instrumentation optimizes the wrong thing.
	Freeze []string
	// Insert lists transform names the insertion operator may add. Empty
	// disables insertion (the registry is large and mostly inapplicable
	// to any given flow, so candidates are opt-in).
	Insert []string
	// Weights biases the mutation-operator draw (zero → DefaultWeights).
	Weights MutationWeights
	// Params declares scenario-level `set` parameter domains to mutate,
	// in addition to the step-argument domains transforms declare in the
	// registry.
	Params []scenario.ParamDomain
	// Trace, if set, receives every evaluated variant's flow events
	// tagged with the variant name (each closed by a flow_end), one
	// gen_summary per generation, and one terminal autotune_verdict.
	// Must be safe for concurrent use.
	Trace scenario.Tracer
	// Log, if set, receives variant flow logs. Must serialize whole
	// writes (an *os.File does). Nil silences them.
	Log io.Writer

	// permuteSalt deterministically shuffles each generation's race
	// entrant order when nonzero. Test hook: the determinism suite uses
	// it to prove selection is evaluation-order invariant.
	permuteSalt uint64
}

// GenSummary records one generation of the search.
type GenSummary struct {
	// Gen is the generation index, 0-based.
	Gen int
	// Evaluated counts the variants actually raced this generation —
	// children whose canonical text was already evaluated are served
	// from cache and not re-raced.
	Evaluated int
	// Best / BestObjective name the generation's pool-best variant.
	Best          string
	BestObjective float64
	// Restart marks a stall restart after this generation.
	Restart bool
}

// Result is a search outcome.
type Result struct {
	// Name echoes Spec.Name; Objective the resolved objective key.
	Name      string
	Objective string
	// BestName / BestScript / BestObjective describe the winning variant;
	// BestScript is canonical (scenario.Script.Format) text.
	BestName      string
	BestScript    string
	BestObjective float64
	// BestMetrics / BestStats are the winner's final measurements.
	BestMetrics *scenario.Metrics
	BestStats   scenario.AnalyzerStats
	// BestDesign is the winner's final design (Fork it to adopt it).
	BestDesign *netio.State
	// BaseObjective is the unmutated base script's own objective —
	// the hand-written baseline the search is trying to beat. -Inf if
	// the base flow failed.
	BaseObjective float64
	// Generations / Evaluated / Restarts are loop totals. Evaluated
	// equals the base State's fork count: one fork per raced variant.
	Generations int
	Evaluated   int
	Restarts    int
	// Gens has one entry per generation run.
	Gens []GenSummary
}

// ErrNoWinner reports a search in which no variant ever finished.
var ErrNoWinner = errors.New("autoflow: no variant finished")

// variant is one script in the search space. Variants are deduplicated
// by canonical text: two mutation paths reaching the same script share
// one variant and one evaluation.
type variant struct {
	id      int    // creation order; the deterministic tie-break key
	name    string // "v<id>" — trace entrant tag
	text    string // canonical Format() text
	script  *scenario.Script
	op      string // operator that produced it ("base" for v0)
	raced   bool
	ok      bool
	obj     float64
	metrics *scenario.Metrics
	stats   scenario.AnalyzerStats
	design  *netio.State
}

// Search runs the evolutionary loop from the base snapshot. base is
// forked exactly once per variant evaluated, across ALL generations, and
// never modified.
func Search(ctx context.Context, base *netio.State, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newSearch(base, &spec).run(ctx)
}

// Validate checks everything a search needs before any flow starts: a
// base script that parses, an objective scenario knows, offspring that
// fit one race, no negative deadline, freeze and insert lists naming
// registered transforms, and valid, distinct param domains. Search and
// ParseSpec both call it.
func (s *Spec) Validate() error {
	if s.Script == "" {
		return errors.New("autoflow: spec has no base script")
	}
	if _, err := scenario.Parse(s.Script); err != nil {
		return fmt.Errorf("autoflow: base script: %w", err)
	}
	if err := scenario.CheckObjective(s.Objective); err != nil {
		return fmt.Errorf("autoflow: %w", err)
	}
	if s.Offspring+1 > portfolio.MaxEntrants {
		return fmt.Errorf("autoflow: offspring %d exceeds the race limit of %d entrants",
			s.Offspring, portfolio.MaxEntrants-1)
	}
	if s.Deadline < 0 {
		return errors.New("autoflow: negative deadline")
	}
	for _, name := range s.Freeze {
		if scenario.Lookup(name) == nil {
			return fmt.Errorf("autoflow: freeze names unknown transform %q", name)
		}
	}
	for _, name := range s.Insert {
		if scenario.Lookup(name) == nil {
			return fmt.Errorf("autoflow: insert names unknown transform %q", name)
		}
	}
	seen := map[string]bool{}
	for _, d := range s.Params {
		if !d.Valid() {
			return fmt.Errorf("autoflow: bad param domain %q", d.Key)
		}
		if seen[d.Key] {
			return fmt.Errorf("autoflow: duplicate param domain %q", d.Key)
		}
		seen[d.Key] = true
	}
	return nil
}

type search struct {
	spec *Spec
	obj  string
	snap *netio.State // the base design every variant forks
	mut  *mutator

	cache    map[string]*variant // canonical text → variant
	nextID   int
	seq      int // autoflow's own trace records (gen_summary, verdict)
	base     *variant
	best     *variant
	restarts int
	raced    int
	gens     []GenSummary
}

// newSearch fills in the spec's defaults; spec has passed Validate.
func newSearch(snap *netio.State, spec *Spec) *search {
	if spec.Population <= 0 {
		spec.Population = 4
	}
	if spec.Offspring <= 0 {
		spec.Offspring = 8
	}
	if spec.Generations <= 0 {
		spec.Generations = 4
	}
	obj := spec.Objective
	if obj == "" {
		obj = scenario.DefaultObjective
	}
	baseScript, _ := scenario.Parse(spec.Script) // Validate parsed it
	s := &search{
		spec:  spec,
		obj:   obj,
		snap:  snap,
		mut:   newMutator(spec),
		cache: map[string]*variant{},
	}
	s.base = s.intern(baseScript, "base")
	return s
}

// intern canonicalizes a script and returns its variant, creating one on
// first sight. The canonical text is the dedup key.
func (s *search) intern(sc *scenario.Script, op string) *variant {
	text := sc.Format()
	if v, ok := s.cache[text]; ok {
		return v
	}
	// Reparse the canonical text so the stored script IS its own format
	// fixpoint (and so no parent aliasing survives into the pool).
	parsed, err := scenario.Parse(text)
	if err != nil {
		// Mutation operators only produce parseable scripts; a failure
		// here is a mutator bug. Fall back to the base rather than dying
		// mid-search.
		return s.base
	}
	v := &variant{
		id:     s.nextID,
		name:   fmt.Sprintf("v%d", s.nextID),
		text:   text,
		script: parsed,
		op:     op,
		obj:    math.Inf(-1),
	}
	s.nextID++
	s.cache[text] = v
	return v
}

func (s *search) run(ctx context.Context) (*Result, error) {
	survivors := []*variant{s.base}
	stale := 0
	gensRun := 0
	var raceErr error

	for g := 0; g < s.spec.Generations; g++ {
		// Breed: generation 0 mutates the base λ times; later generations
		// breed λ children round-robin over the survivors.
		pool := append([]*variant{}, survivors...)
		poolScripts := make([]*scenario.Script, len(survivors))
		for i, v := range survivors {
			poolScripts[i] = v.script
		}
		seen := map[int]bool{}
		for _, v := range pool {
			seen[v.id] = true
		}
		for k := 0; k < s.spec.Offspring; k++ {
			parent := survivors[k%len(survivors)]
			child, op := s.mut.mutate(newRNG(s.spec.Seed, int64(g), int64(k)), parent.script, poolScripts)
			v := s.intern(child, op)
			if !seen[v.id] {
				seen[v.id] = true
				pool = append(pool, v)
			}
		}

		// Evaluate every not-yet-raced pool member as one race from the
		// shared snapshot.
		var toEval []*variant
		for _, v := range pool {
			if !v.raced {
				toEval = append(toEval, v)
			}
		}
		if err := s.evaluate(ctx, g, toEval); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				raceErr = err
				gensRun = g
				break
			}
			return nil, err
		}
		gensRun = g + 1

		// Select: finished first, then objective, then creation order —
		// a total order no evaluation schedule can disturb.
		sort.SliceStable(pool, func(i, j int) bool {
			a, b := pool[i], pool[j]
			if a.ok != b.ok {
				return a.ok
			}
			if a.obj != b.obj {
				return a.obj > b.obj
			}
			return a.id < b.id
		})
		mu := s.spec.Population
		if mu > len(pool) {
			mu = len(pool)
		}
		survivors = append([]*variant{}, pool[:mu]...)

		// Global best: strict improvement only, so ties keep the earliest
		// discovery.
		improved := false
		if top := pool[0]; top.ok && (s.best == nil || top.obj > s.best.obj) {
			s.best = top
			improved = true
		}
		gs := GenSummary{Gen: g, Evaluated: len(toEval)}
		if pool[0].ok {
			gs.Best, gs.BestObjective = pool[0].name, pool[0].obj
		}

		// Stall restart: reseed the population from the global best and
		// the base when the search stops improving.
		if improved {
			stale = 0
		} else {
			stale++
			if s.spec.Stall > 0 && stale >= s.spec.Stall && g+1 < s.spec.Generations {
				gs.Restart = true
				s.restarts++
				stale = 0
				survivors = survivors[:0]
				if s.best != nil {
					survivors = append(survivors, s.best)
				}
				if s.best != s.base {
					survivors = append(survivors, s.base)
				}
			}
		}
		s.gens = append(s.gens, gs)
		s.emit(scenario.Event{
			Type: scenario.EvGenSummary, Scenario: s.spec.Name, Gen: g,
			Changed: gs.Evaluated, Winner: gs.Best, Objective: objPtr(pool[0]),
		})
		s.logf("autoflow %s gen %d: evaluated %d, best %s obj=%g%s",
			s.spec.Name, g, gs.Evaluated, gs.Best, gs.BestObjective,
			map[bool]string{true: " (restart)", false: ""}[gs.Restart])

		// Drop designs we can no longer need: only survivors and the
		// global best can still become the final answer.
		keep := map[int]bool{}
		for _, v := range survivors {
			keep[v.id] = true
		}
		if s.best != nil {
			keep[s.best.id] = true
		}
		for _, v := range pool {
			if !keep[v.id] {
				v.design = nil
			}
		}
	}

	res := &Result{
		Name:          s.spec.Name,
		Objective:     s.obj,
		BaseObjective: s.base.obj,
		Generations:   gensRun,
		Evaluated:     s.raced,
		Restarts:      s.restarts,
		Gens:          s.gens,
	}
	if !s.base.ok {
		res.BaseObjective = math.Inf(-1)
	}
	ev := scenario.Event{
		Type: scenario.EvAutotuneVerdict, Scenario: s.spec.Name,
		Detail: s.obj, Gen: gensRun, Changed: s.raced,
	}
	if s.best != nil {
		res.BestName = s.best.name
		res.BestScript = s.best.text
		res.BestObjective = s.best.obj
		res.BestMetrics = s.best.metrics
		res.BestStats = s.best.stats
		res.BestDesign = s.best.design
		ev.Winner = s.best.name
		o := s.best.obj
		ev.Objective = &o
	}
	s.emit(ev)
	if raceErr != nil {
		return res, fmt.Errorf("autoflow: search aborted: %w", raceErr)
	}
	if s.best == nil {
		return res, ErrNoWinner
	}
	return res, nil
}

// evaluate races the given variants from the shared snapshot and writes
// each verdict back onto its variant. Evaluation order (the entrant
// list) carries no meaning — the test hook permutes it to prove that.
func (s *search) evaluate(ctx context.Context, g int, toEval []*variant) error {
	if len(toEval) == 0 {
		return nil
	}
	order := toEval
	if s.spec.permuteSalt != 0 {
		order = permute(toEval, s.spec.permuteSalt+uint64(g))
	}
	entrants := make([]portfolio.Entrant, len(order))
	for i, v := range order {
		entrants[i] = portfolio.Entrant{Name: v.name, Script: v.text, Seed: s.spec.Seed}
	}
	var tr scenario.Tracer
	if s.spec.Trace != nil {
		tr = raceFilter{s.spec.Trace}
	}
	res, err := portfolio.RaceFrom(ctx, s.snap, portfolio.Spec{
		Name:           fmt.Sprintf("%s.g%d", s.spec.Name, g),
		Entrants:       entrants,
		Objective:      s.obj,
		Deadline:       s.spec.Deadline,
		Workers:        s.spec.Workers,
		EntrantWorkers: 1,
		// Every variant's fitness feeds selection and later breeding, so
		// dominance cancellation would starve the gene pool.
		NoEarlyStop: true,
		Trace:       tr,
		Log:         s.spec.Log,
	})
	if err != nil && !errors.Is(err, portfolio.ErrNoWinner) {
		if res == nil {
			return err
		}
		// Aborted mid-race: record what finished, then surface the abort.
		s.absorb(order, res)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}
	s.absorb(order, res)
	return nil
}

func (s *search) absorb(order []*variant, res *portfolio.Result) {
	s.raced += len(order)
	for i := range res.Verdicts {
		v := order[i]
		vd := &res.Verdicts[i]
		v.raced = true
		if vd.Status == portfolio.StatusFinished {
			v.ok = true
			v.obj = vd.Objective
			v.metrics = vd.Metrics
			v.stats = vd.Stats
			if i < len(res.Designs) {
				v.design = res.Designs[i]
			}
		}
	}
}

func (s *search) emit(e scenario.Event) {
	if s.spec.Trace == nil {
		return
	}
	s.seq++
	e.Seq = s.seq
	s.spec.Trace.Emit(e)
}

func (s *search) logf(format string, args ...any) {
	if s.spec.Log == nil {
		return
	}
	fmt.Fprintf(s.spec.Log, format+"\n", args...)
}

func objPtr(v *variant) *float64 {
	if v == nil || !v.ok {
		return nil
	}
	o := v.obj
	return &o
}

// raceFilter drops the inner races' race_verdict records: an autoflow
// stream ends with one autotune_verdict, not one verdict per generation.
type raceFilter struct{ out scenario.Tracer }

func (f raceFilter) Emit(e scenario.Event) {
	if e.Type == scenario.EvRaceVerdict {
		return
	}
	f.out.Emit(e)
}

// permute returns a deterministic pseudo-shuffle of vs keyed by salt
// (Fisher–Yates over a SplitMix64 stream). Test hook only.
func permute(vs []*variant, salt uint64) []*variant {
	out := append([]*variant{}, vs...)
	r := &rng{state: salt}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
