package autoflow

import (
	"sort"
	"strconv"

	"tps/internal/par"
	"tps/internal/scenario"
)

// rng is a SplitMix64 chain: each draw mixes the previous output. Plenty
// of statistical quality for operator choices, and — the property that
// actually matters here — a pure function of its seed path, so every
// child's mutation is reproducible from (Spec.Seed, generation, child)
// alone, independent of evaluation scheduling.
type rng struct{ state uint64 }

func newRNG(seed int64, path ...int64) *rng {
	return &rng{state: uint64(par.DeriveSeed(seed, path...))}
}

func (r *rng) next() uint64 {
	r.state = par.SplitMix64(r.state)
	return r.state
}

// intn returns a draw in [0, n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// alwaysFrozen names the measurement steps no mutation may touch: a
// search free to delete its own fitness instrumentation optimizes the
// wrong thing.
var alwaysFrozen = map[string]bool{
	"evaluate":  true,
	"remeasure": true,
	"route":     true,
}

// windowShifts are the deltas the shift operator applies to explicit
// status windows — coarse jumps matching the status loop's granularity.
var windowShifts = [...]int{-10, -5, 5, 10}

// floatGridPoints discretizes float domains: mutation samples
// lo + k·(hi−lo)/(floatGridPoints−1). A grid keeps the variant space
// finite (dedup actually hits) and the emitted literals short.
const floatGridPoints = 17

// mutator owns the per-search mutation state: resolved operator
// weights, the frozen-step set, insertion candidates, and the declared
// parameter domains mutation may draw from.
type mutator struct {
	weights MutationWeights
	frozen  map[string]bool
	insert  []*scenario.Transform
	// setDomains are the spec's scenario-level `set` domains.
	setDomains []scenario.ParamDomain
}

// newMutator resolves a validated spec's mutation settings.
func newMutator(spec *Spec) *mutator {
	m := &mutator{
		weights:    spec.Weights,
		frozen:     map[string]bool{},
		setDomains: spec.Params,
	}
	if m.weights.zero() {
		m.weights = DefaultWeights()
	}
	for name := range alwaysFrozen {
		m.frozen[name] = true
	}
	for _, name := range spec.Freeze {
		m.frozen[name] = true
	}
	for _, name := range spec.Insert {
		if !m.frozen[name] {
			m.insert = append(m.insert, scenario.Lookup(name))
		}
	}
	return m
}

// op identifies one mutation operator.
type op int

const (
	opReorder op = iota
	opShift
	opParam
	opInsert
	opDelete
	opCross
	numOps
)

var opNames = [numOps]string{"reorder", "shift", "param", "insert", "delete", "cross"}

func (m *mutator) weight(o op) int {
	w := [numOps]int{
		m.weights.Reorder, m.weights.Shift, m.weights.Param,
		m.weights.Insert, m.weights.Delete, m.weights.Cross,
	}[o]
	if w < 0 {
		return 0
	}
	return w
}

// mutate breeds one child from parent. pool carries the current
// survivors for crossover. The returned script is always freshly
// cloned — never aliased to parent or pool — and always parseable
// (operators preserve grammar invariants; intern re-verifies). The
// second return names the applied operator ("none" when no operator was
// applicable, in which case the child is a plain copy and dedup will
// fold it back onto the parent).
func (m *mutator) mutate(r *rng, parent *scenario.Script, pool []*scenario.Script) (*scenario.Script, string) {
	c := parent.Clone()
	total := 0
	for o := op(0); o < numOps; o++ {
		total += m.weight(o)
	}
	if total == 0 {
		return c, "none"
	}
	// Weighted draw, then rotate to the next applicable operator so a
	// draw landing on an inapplicable op (e.g. cross with one survivor)
	// still mutates instead of wasting the child.
	pick := r.intn(total)
	first := op(0)
	for o := op(0); o < numOps; o++ {
		pick -= m.weight(o)
		if pick < 0 {
			first = o
			break
		}
	}
	for i := 0; i < int(numOps); i++ {
		o := op((int(first) + i) % int(numOps))
		if m.weight(o) == 0 {
			continue
		}
		applied := false
		switch o {
		case opReorder:
			applied = m.reorder(r, c)
		case opShift:
			applied = m.shift(r, c)
		case opParam:
			applied = m.param(r, c)
		case opInsert:
			applied = m.insertStep(r, c)
		case opDelete:
			applied = m.deleteStep(r, c)
		case opCross:
			applied = m.cross(r, c, pool)
		}
		if applied {
			return c, opNames[o]
		}
	}
	return c, "none"
}

// reorder swaps two adjacent non-frozen steps within one block.
func (m *mutator) reorder(r *rng, c *scenario.Script) bool {
	type pair struct{ b, s int }
	var cands []pair
	for bi := range c.Blocks {
		steps := c.Blocks[bi].Steps
		for si := 0; si+1 < len(steps); si++ {
			if !m.frozen[steps[si].Name] && !m.frozen[steps[si+1].Name] {
				cands = append(cands, pair{bi, si})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	p := cands[r.intn(len(cands))]
	steps := c.Blocks[p.b].Steps
	steps[p.s], steps[p.s+1] = steps[p.s+1], steps[p.s]
	return true
}

// shift moves one step's explicit status window by a coarse delta,
// clamped to [0, 100] and kept well-formed (Lo < Hi).
func (m *mutator) shift(r *rng, c *scenario.Script) bool {
	var cands []*scenario.Step
	for bi := range c.Blocks {
		for _, st := range c.Blocks[bi].Steps {
			if m.frozen[st.Name] {
				continue
			}
			if st.GE || st.Lo != -1 || st.Hi != 101 {
				cands = append(cands, st)
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	st := cands[r.intn(len(cands))]
	d := windowShifts[r.intn(len(windowShifts))]
	if st.GE {
		st.Lo = clamp(st.Lo+d, 0, 100)
		return true
	}
	lo, hi := st.Lo, st.Hi
	if lo != -1 {
		lo = clamp(lo+d, 0, 100)
	}
	if hi != 101 {
		hi = clamp(hi+d, 0, 100)
	}
	if lo != -1 && hi != 101 && lo >= hi {
		return false
	}
	st.Lo, st.Hi = lo, hi
	return true
}

// param re-samples one declared parameter: either a step argument whose
// transform declares a domain, or a scenario-level `set` key from the
// spec's domains. Undeclared parameters are never touched.
func (m *mutator) param(r *rng, c *scenario.Script) bool {
	type cand struct {
		st  *scenario.Step // nil → scenario-level set param
		dom scenario.ParamDomain
	}
	var cands []cand
	for bi := range c.Blocks {
		for _, st := range c.Blocks[bi].Steps {
			if m.frozen[st.Name] {
				continue
			}
			t := scenario.Lookup(st.Name)
			if t == nil {
				continue
			}
			for _, d := range t.Params {
				cands = append(cands, cand{st, d})
			}
		}
	}
	for _, d := range m.setDomains {
		cands = append(cands, cand{nil, d})
	}
	if len(cands) == 0 {
		return false
	}
	pick := cands[r.intn(len(cands))]
	var cur string
	if pick.st != nil {
		cur = pick.st.Args[pick.dom.Key]
	} else {
		cur = c.Params[pick.dom.Key]
	}
	val := sample(r, pick.dom, cur)
	if pick.st != nil {
		pick.st.Args[pick.dom.Key] = val
	} else {
		c.Params[pick.dom.Key] = val
	}
	return true
}

// sample draws a value from the domain, steering enums away from the
// current value when possible.
func sample(r *rng, d scenario.ParamDomain, cur string) string {
	switch d.Kind {
	case scenario.ParamInt:
		lo, hi := int(d.Lo), int(d.Hi)
		return strconv.Itoa(lo + r.intn(hi-lo+1))
	case scenario.ParamFloat:
		k := r.intn(floatGridPoints)
		v := d.Lo + float64(k)*(d.Hi-d.Lo)/float64(floatGridPoints-1)
		return strconv.FormatFloat(v, 'g', -1, 64)
	case scenario.ParamEnum:
		if len(d.Enum) > 1 {
			// Drop the current value so the mutation always moves.
			others := make([]string, 0, len(d.Enum))
			for _, v := range d.Enum {
				if v != cur {
					others = append(others, v)
				}
			}
			if len(others) > 0 {
				return others[r.intn(len(others))]
			}
		}
		return d.Enum[r.intn(len(d.Enum))]
	}
	return cur
}

// insertStep adds one transform from the opt-in candidate list at a
// random position, as a plain always-fires step, optionally with one
// sampled argument.
func (m *mutator) insertStep(r *rng, c *scenario.Script) bool {
	if len(m.insert) == 0 || len(c.Blocks) == 0 {
		return false
	}
	t := m.insert[r.intn(len(m.insert))]
	bi := r.intn(len(c.Blocks))
	b := &c.Blocks[bi]
	pos := r.intn(len(b.Steps) + 1)
	st := &scenario.Step{Name: t.Name, Args: map[string]string{}, Lo: -1, Hi: 101}
	if len(t.Params) > 0 && r.intn(2) == 1 {
		d := t.Params[r.intn(len(t.Params))]
		st.Args[d.Key] = sample(r, d, "")
	}
	b.Steps = append(b.Steps, nil)
	copy(b.Steps[pos+1:], b.Steps[pos:])
	b.Steps[pos] = st
	return true
}

// deleteStep removes one non-frozen step. Blocks keep at least one step
// so the script's phase structure survives.
func (m *mutator) deleteStep(r *rng, c *scenario.Script) bool {
	type pair struct{ b, s int }
	var cands []pair
	for bi := range c.Blocks {
		steps := c.Blocks[bi].Steps
		if len(steps) < 2 {
			continue
		}
		for si, st := range steps {
			if !m.frozen[st.Name] {
				cands = append(cands, pair{bi, si})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	p := cands[r.intn(len(cands))]
	b := &c.Blocks[p.b]
	b.Steps = append(b.Steps[:p.s], b.Steps[p.s+1:]...)
	return true
}

// cross splices c with another survivor: blocks up to a cut point come
// from c, the rest from the partner (all variants descend from one base,
// so block structure aligns), then each of the partner's scenario params
// transfers on a coin flip.
func (m *mutator) cross(r *rng, c *scenario.Script, pool []*scenario.Script) bool {
	var others []*scenario.Script
	ctext := c.Format()
	for _, q := range pool {
		if q.Format() != ctext {
			others = append(others, q)
		}
	}
	if len(others) == 0 {
		return false
	}
	q := others[r.intn(len(others))].Clone()
	if len(c.Blocks) != len(q.Blocks) {
		return false
	}
	cut := r.intn(len(c.Blocks) + 1)
	for bi := cut; bi < len(c.Blocks); bi++ {
		c.Blocks[bi] = q.Blocks[bi]
	}
	for _, k := range sortedParamKeys(q.Params) {
		if r.intn(2) == 1 {
			c.Params[k] = q.Params[k]
		}
	}
	return true
}

func sortedParamKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
