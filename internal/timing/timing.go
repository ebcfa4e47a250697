// Package timing is the incremental static timing analyzer that every TPS
// transform queries (§1, §3). It mirrors the contract of the engine the
// paper cites (Hathaway et al., US 5,508,937): arrival and required times
// are maintained lazily through level-ordered dirty queues, so after a
// placement move or netlist edit only the affected cone is recomputed.
//
// Timing graph: pins are the timing nodes. Net edges run driver→sink with
// a wire delay from the registered net-delay calculators; gate arcs run
// input→output for combinational cells. Register Q pins and input-pad
// outputs are begin points (ideal clock, arrival = clock-to-Q for
// registers); register D/SI pins and output-pad inputs are end points with
// required time = clock period − setup. Clock nets are excluded from data
// propagation (ideal clock model; clock wiring quality is optimized
// geometrically by the clock transform of §4.5).
package timing

import (
	"math"
	"sort"

	"tps/internal/cell"
	"tps/internal/delay"
	"tps/internal/netlist"
	"tps/internal/par"
	"tps/internal/steiner"
)

const eps = 1e-6

// Engine is the incremental STA engine. An engine on a fork of a
// netio.State may take its first full pass ready-made (Seed): the State
// computes that pass once per delay mode (FirstPass), and every fork that
// asks for it before any edit installs a copy instead of levelizing,
// solving and propagating again.
type Engine struct {
	nl   *netlist.Netlist
	Calc *delay.Calculator
	// Period is the target clock period in ps.
	Period float64
	// Setup is the register setup time in ps.
	Setup float64

	// Workers bounds the fan-out of the full-design flush. Levels are a
	// natural barrier — every pin's inputs live at strictly lower levels
	// (arrival) or strictly higher levels (required) — so each level's
	// evaluations are independent and the parallel flush is bit-identical
	// to the serial one. 0 or 1 keeps the flush fully serial. The engine's
	// public API remains single-goroutine; parallelism is internal.
	Workers int

	arr, req []float64
	level    []int32
	// kind flags per pin, rebuilt at levelization.
	flags []pinFlag
	// late caches Port().Late*Tau per pin so the evaluation hot loops skip
	// the Gate→Cell→Port pointer chase; refreshed wherever flags are.
	late []float64
	// outPin caches the gate's output pin per pin, stored as ID+1 (0 = no
	// output) so the zero value of a grown slab means "none". Same
	// lifecycle as flags; saves the Gate.Output port scan in hot loops.
	outPin []int32

	endpoints []*netlist.Pin
	pinOf     []*netlist.Pin // pin ID → pin

	// levelsValid reports that level/flags/pinOf/endpoints are
	// consistent with the current topology. Connectivity edits repair them
	// incrementally (relaxNet, GateAdded, GateRemoved); the flag drops only
	// when an edit is too awkward to patch — cycles, replaced cells that
	// change pin roles, relaxation budget blown — and the next query then
	// pays one full relevel.
	levelsValid bool
	kindEpoch   uint64 // nl.KindEpoch when levels were last built
	allDirty    bool

	// pendArr and pendReq list pin IDs queued for recompute; inPendArr
	// and inPendReq flag the pins still pending.
	pendArr, pendReq []int
	inPendArr        []bool
	inPendReq        []bool

	// Reusable scratch (relevel, full-flush ordering, incremental heaps):
	// sized to high-water marks so steady-state flushes allocate nothing.
	indegScratch []int32
	queueScratch []int
	idScratch    []int   // live pin ID collection buffer
	idSorted     []int   // level-sorted pin IDs (counting-sort output)
	levelCount   []int32 // counting-sort cursor workspace (per level)
	levelStart   []int32 // level → start offset in idSorted
	buckets      [][]int // per-level worklists for drainArr and drainReq
	relaxQueue   []int   // BFS workspace for incremental level repair
	adj          []int   // neighbour IDs from appendPred/appendSucc

	// seed supplies the shared first pass (Seed); heard records that an
	// observer callback has fired since New, after which the netlist may
	// no longer be the one a shared pass describes.
	seed  func(m delay.Mode, workers int) *Pass
	heard bool

	// Recomputes counts pin evaluations since construction; tests use it
	// to demonstrate incrementality. An installed pass is not evaluation.
	Recomputes int
	// HasCycles reports that levelization found a combinational cycle;
	// pins on cycles are frozen at arrival 0 rather than looping.
	HasCycles bool
}

type pinFlag uint8

const (
	flagBegin pinFlag = 1 << iota
	flagEnd
	flagClockPin // excluded from data graph
	flagOnCycle
	flagOutput // pin direction, cached to skip the Port() chase in hot loops
)

// New creates an engine over nl with the given delay calculator and clock
// period. The engine subscribes to netlist changes.
func New(nl *netlist.Netlist, calc *delay.Calculator, period float64) *Engine {
	e := &Engine{
		nl:     nl,
		Calc:   calc,
		Period: period,
		Setup:  nl.Lib.Tech.Tau,
	}
	nl.Observe(e)
	return e
}

// Close unsubscribes the engine.
func (e *Engine) Close() { e.nl.Unobserve(e) }

// SetPeriod changes the clock period; all required times shift.
func (e *Engine) SetPeriod(p float64) {
	e.Period = p
	e.allDirty = true
}

// SetMode switches the delay model for the whole design (gain-based early,
// actual later, per §5) and invalidates all timing.
func (e *Engine) SetMode(m delay.Mode) {
	e.Calc.SetMode(m)
	e.allDirty = true
}

// InvalidateAll forces a full recomputation on the next query — for global
// delay-model parameter changes (e.g. the intra-bin wire estimate tracking
// the refining bin size).
func (e *Engine) InvalidateAll() { e.allDirty = true }

// ---- graph structure helpers ----

// dataNet reports whether net n participates in data timing.
func dataNet(n *netlist.Net) bool { return n != nil && n.Kind != netlist.Clock }

// roleFlags derives pin p's flags from its port and gate: the direction,
// and whether it is a clock pin (outside the data graph), a begin point
// (register Q, input-pad O) or an end point (register D/SI, output-pad
// I).
func roleFlags(p *netlist.Pin) pinFlag {
	fl := pinFlag(0)
	out := p.Dir() == cell.Output
	if out {
		fl = flagOutput
	}
	switch g := p.Gate; {
	case p.Port().Clock:
		fl |= flagClockPin
	case g.IsSequential() || g.IsPad():
		if out {
			fl |= flagBegin
		} else {
			fl |= flagEnd
		}
	}
	return fl
}

// register records pin p of a gate whose output pin ID+1 is zid (0 for
// none) and returns the pin's role flags.
func (e *Engine) register(p *netlist.Pin, zid int32) pinFlag {
	fl := roleFlags(p)
	e.pinOf[p.ID], e.outPin[p.ID], e.flags[p.ID] = p, zid, fl
	e.late[p.ID] = p.Port().Late * e.nl.Lib.Tech.Tau
	return fl
}

// outRef returns g's output pin ID+1, or 0 when g has no output.
func outRef(g *netlist.Gate) int32 {
	if z := g.Output(); z != nil {
		return int32(z.ID) + 1
	}
	return 0
}

// relevel rebuilds pin levels, flags, and the end-point list with Kahn's
// algorithm over the pin graph. Arrival/required values survive (they are
// indexed by stable pin IDs): after a topology edit only the edit site —
// marked dirty by the observer callbacks — and any newly created pins need
// recomputation, so netlist transforms stay incremental.
func (e *Engine) relevel() {
	firstBuild := e.level == nil
	oldNP := len(e.pinOf)
	np := e.nl.NumPins()
	e.growPinArrays(np)

	for i := range e.flags {
		e.flags[i] = 0
		e.level[i] = 0
		e.outPin[i] = 0
		e.pinOf[i] = nil
	}
	e.endpoints = e.endpoints[:0]

	if cap(e.indegScratch) < np {
		e.indegScratch = make([]int32, np)
	}
	indeg := e.indegScratch[:np]
	for i := range indeg {
		indeg[i] = 0
	}
	queue := e.queueScratch[:0]

	e.nl.Gates(func(g *netlist.Gate) {
		zid := outRef(g)
		for _, p := range g.Pins {
			fl := e.register(p, zid)
			if fl&flagClockPin != 0 {
				continue
			}
			if fl&flagEnd != 0 {
				e.endpoints = append(e.endpoints, p)
			}
			e.adj = e.appendPred(e.adj[:0], p.ID)
			indeg[p.ID] = int32(len(e.adj))
			if indeg[p.ID] == 0 {
				queue = append(queue, p.ID)
			}
		}
	})

	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if e.pinOf[id] == nil {
			continue
		}
		e.adj = e.appendSucc(e.adj[:0], id)
		for _, q := range e.adj {
			if e.level[q] < e.level[id]+1 {
				e.level[q] = e.level[id] + 1
			}
			indeg[q]--
			if indeg[q] == 0 {
				queue = append(queue, q)
			}
		}
	}

	e.queueScratch = queue[:0]
	e.HasCycles = false
	for id := range indeg {
		if indeg[id] > 0 {
			e.flags[id] |= flagOnCycle
			e.HasCycles = true
		}
	}

	e.levelsValid = true
	e.kindEpoch = e.nl.KindEpoch
	if firstBuild {
		e.allDirty = true
		return
	}
	// Incremental topology update: existing values stay valid away from
	// the edit site; new pins start unknown.
	for id := oldNP; id < np; id++ {
		if e.pinOf[id] != nil {
			e.markArr(id)
			e.markReq(id)
		}
	}
}

// appendPred appends the IDs of pin id's timing fanin pins to dst.
func (e *Engine) appendPred(dst []int, id int) []int {
	fl := e.flags[id]
	if fl&flagClockPin != 0 {
		return dst
	}
	p := e.pinOf[id]
	if fl&flagOutput == 0 {
		if dataNet(p.Net) {
			if d := p.Net.Driver(); d != nil {
				dst = append(dst, d.ID)
			}
		}
		return dst
	}
	if fl&flagBegin != 0 {
		return dst
	}
	for _, q := range p.Gate.Pins {
		if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 {
			dst = append(dst, q.ID)
		}
	}
	return dst
}

// appendSucc appends the IDs of pin id's timing fanout pins to dst.
func (e *Engine) appendSucc(dst []int, id int) []int {
	fl := e.flags[id]
	if fl&flagClockPin != 0 {
		return dst
	}
	if fl&flagOutput != 0 {
		if p := e.pinOf[id]; dataNet(p.Net) {
			for _, q := range p.Net.Pins() {
				if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 {
					dst = append(dst, q.ID)
				}
			}
		}
		return dst
	}
	if fl&flagEnd != 0 {
		return dst
	}
	if zid := e.outPin[id]; zid != 0 {
		dst = append(dst, int(zid-1))
	}
	return dst
}

// ---- evaluation ----

func (e *Engine) evalArr(p *netlist.Pin) float64 {
	e.Recomputes++
	return e.arrOf(p)
}

// arrOf computes the arrival time of p from its predecessors' committed
// values. It is side-effect-free (no counter updates) so the parallel
// flush can call it from worker goroutines; all state it reads — arr
// values of strictly lower levels, flags, and the prepared delay caches —
// is frozen during a fan-out.
func (e *Engine) arrOf(p *netlist.Pin) float64 {
	if e.flags[p.ID]&flagOnCycle != 0 {
		return 0
	}
	if e.flags[p.ID]&flagOutput == 0 {
		if !dataNet(p.Net) {
			return 0
		}
		d := p.Net.Driver()
		if d == nil {
			return 0
		}
		return e.arr[d.ID] + e.Calc.PinArrivalDelay(p)
	}
	if p.Net != nil && !dataNet(p.Net) {
		// Drivers of clock nets sit outside the data graph (ideal clock
		// model): their "arrival" would be a load-dependent value nothing
		// propagates or queries, and the observers rightly never touch
		// clock nets — so pin it at 0 rather than letting a stale
		// evaluation linger.
		return 0
	}
	g := p.Gate
	if g.IsPad() {
		return 0
	}
	if g.IsSequential() {
		return e.Calc.ArcDelay(g, p) // clock-to-Q from an ideal clock edge
	}
	worst := 0.0
	have := false
	for _, q := range g.Pins {
		if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 && q.Net != nil && dataNet(q.Net) {
			if a := e.arr[q.ID] + e.late[q.ID]; !have || a > worst {
				worst, have = a, true
			}
		}
	}
	return worst + e.Calc.ArcDelay(g, p)
}

func (e *Engine) evalReq(p *netlist.Pin) float64 {
	e.Recomputes++
	return e.reqOf(p)
}

// reqOf computes the required time of p from its successors' committed
// values; the side-effect-free counterpart of arrOf (see there).
func (e *Engine) reqOf(p *netlist.Pin) float64 {
	if e.flags[p.ID]&flagOnCycle != 0 {
		return math.Inf(1)
	}
	if e.flags[p.ID]&flagEnd != 0 {
		if p.Gate.IsSequential() {
			return e.Period - e.Setup
		}
		return e.Period
	}
	if e.flags[p.ID]&flagOutput != 0 {
		if !dataNet(p.Net) {
			return math.Inf(1)
		}
		r := math.Inf(1)
		for i, q := range p.Net.Pins() {
			if e.flags[q.ID]&(flagOutput|flagClockPin) != 0 {
				continue
			}
			if v := e.req[q.ID] - e.Calc.WireDelay(p.Net, i); v < r {
				r = v
			}
		}
		return r
	}
	zid := e.outPin[p.ID]
	if zid == 0 || p.Gate.IsSequential() {
		return math.Inf(1)
	}
	z := e.pinOf[zid-1]
	return e.req[z.ID] - e.Calc.ArcDelay(p.Gate, z) - e.late[p.ID]
}

// ---- dirty management & flushing ----

func (e *Engine) ensure() {
	if e.level == nil && e.install() {
		return
	}
	// Net-kind changes (ClassifyKinds, SetNetKind) redraw the data graph's
	// edge set without any per-net event granularity, so they force a full
	// relevel via the kind epoch. Ordinary connectivity edits are repaired
	// in place by the observer callbacks and leave levelsValid set.
	if e.level == nil || !e.levelsValid || e.kindEpoch != e.nl.KindEpoch {
		e.relevel()
	}
}

// relaxNet repairs the levelization after a connectivity edit on net n by
// relaxing level[sink] ≥ level[driver]+1 forward through the fanout cone.
// Levels are maintained as an over-approximation of the minimal Kahn
// levels: edits only ever raise them (disconnects leave slack behind),
// which preserves the one property every flush needs — strictly ascending
// levels along every data edge — while avoiding the O(V+E) rebuild that
// made structural transforms quadratic at scale. The BFS carries a budget:
// blowing it means the edit created a cycle (levels would climb forever)
// or churned pathologically, and either way the next query falls back to a
// full relevel, which also re-derives the cycle flags.
func (e *Engine) relaxNet(n *netlist.Net) {
	if e.HasCycles {
		// Cycle pins are frozen at whatever the last relevel discovered;
		// patching levels around frozen pins is not worth the complexity.
		e.levelsValid = false
		return
	}
	if !dataNet(n) {
		return
	}
	d := n.Driver()
	if d == nil {
		return
	}
	q := e.relaxQueue[:0]
	dl := e.level[d.ID]
	for _, p := range n.Pins() {
		if p.Dir() != cell.Input || e.flags[p.ID]&flagClockPin != 0 {
			continue
		}
		if e.level[p.ID] <= dl {
			e.level[p.ID] = dl + 1
			q = append(q, p.ID)
		}
	}
	budget := 2*len(e.pinOf) + 64
	maxL := int32(2*len(e.pinOf) + 1024) // inflation guard: levels past this are pathological
	for len(q) > 0 {
		id := q[len(q)-1]
		q = q[:len(q)-1]
		budget--
		if budget < 0 || e.level[id] > maxL {
			e.relaxQueue = q[:0]
			e.levelsValid = false
			return
		}
		if e.pinOf[id] == nil {
			continue
		}
		e.adj = e.appendSucc(e.adj[:0], id)
		for _, s := range e.adj {
			if e.level[s] <= e.level[id] {
				e.level[s] = e.level[id] + 1
				q = append(q, s)
			}
		}
	}
	e.relaxQueue = q[:0]
}

// markArr queues pin id's arrival for recompute, growing the flag slab
// for pins marked before the arrays grew.
func (e *Engine) markArr(id int) {
	if id >= len(e.inPendArr) {
		e.inPendArr = grow(e.inPendArr, e.nl.NumPins())
	}
	if e.inPendArr[id] {
		return
	}
	e.inPendArr[id] = true
	e.pendArr = append(e.pendArr, id)
}

func (e *Engine) markReq(id int) {
	if id >= len(e.inPendReq) {
		e.inPendReq = grow(e.inPendReq, e.nl.NumPins())
	}
	if e.inPendReq[id] {
		return
	}
	e.inPendReq[id] = true
	e.pendReq = append(e.pendReq, id)
}

// touchNet marks the pins whose timing depends directly on net n's
// geometry or load: the driver's arrival (arc delay sees the load), the
// sinks' arrivals (wire delay), the driver's required (wire delay), and
// the driver gate's input requireds (arc delay).
//
// Known approximation: a sink gate's output arrival also depends on WHICH
// of its inputs are connected (arrOf maxes over connected data inputs
// only), but that output is reached solely through value propagation from
// the sink — so a connect/disconnect that leaves the sink's own arrival
// numerically unchanged is stopped by the eps gate and the output keeps
// its old value until something else dirties it. This matches the
// original full-relevel engine exactly (relevel never re-marked values
// either) and is locked in by the bit-identical flow goldens; flows that
// need exact values after bulk restructuring call InvalidateAll.
func (e *Engine) touchNet(n *netlist.Net) {
	d := n.Driver()
	if d != nil {
		e.markArr(d.ID)
		e.markReq(d.ID)
		for _, q := range d.Gate.Pins {
			if q.Dir() == cell.Input {
				e.markReq(q.ID)
			}
		}
	}
	for _, q := range n.Pins() {
		if q.Dir() == cell.Input {
			e.markArr(q.ID)
		}
	}
}

// bucketPush files id under level l in the per-level worklists the
// drains sweep. Bucket backing arrays persist across drains, so
// steady-state pushes are a bounds check and an append.
func (e *Engine) bucketPush(l int32, id int) {
	for int(l) >= len(e.buckets) {
		e.buckets = append(e.buckets, nil)
	}
	e.buckets[l] = append(e.buckets[l], id)
}

// Flush brings all timing up to date. Every query calls it.
func (e *Engine) Flush() {
	e.ensure()
	if e.allDirty {
		e.flushAll()
		return
	}
	lo, hi := e.fill(e.pendArr, e.inPendArr)
	e.pendArr = e.pendArr[:0]
	e.drainArr(lo, hi)
	lo, hi = e.fill(e.pendReq, e.inPendReq)
	e.pendReq = e.pendReq[:0]
	e.drainReq(lo, hi)
}

func (e *Engine) flushAll() {
	e.allDirty = false
	e.pendArr = e.pendArr[:0]
	e.pendReq = e.pendReq[:0]
	for i := range e.inPendArr {
		e.inPendArr[i] = false
	}
	for i := range e.inPendReq {
		e.inPendReq[i] = false
	}
	// Evaluate every pin once in level order (forward for arrival,
	// backward for required).
	ids := e.idScratch[:0]
	for id, p := range e.pinOf {
		if p != nil {
			ids = append(ids, id)
		}
	}
	// Batch-prepare the delay caches at every width: the worker goroutines
	// below only read them, prepared results are identical to lazy ones,
	// and preparing the same net set keeps the analyzer pass counters
	// (printed by tpsflow) worker-independent, not just the metrics.
	e.Calc.Prepare(e.Workers)

	// Counting-sort the live pins into contiguous level blocks (ascending
	// level, ascending ID within a level — ids is collected in ID order and
	// the scatter is stable). Both passes walk these blocks without
	// allocating.
	var maxL int32
	for _, id := range ids {
		if e.level[id] > maxL {
			maxL = e.level[id]
		}
	}
	numL := int(maxL) + 1
	if cap(e.levelStart) < numL+1 {
		e.levelStart = make([]int32, numL+1)
		e.levelCount = make([]int32, numL)
	}
	start := e.levelStart[:numL+1]
	cur := e.levelCount[:numL]
	for i := range start {
		start[i] = 0
	}
	for _, id := range ids {
		start[e.level[id]+1]++
	}
	for i := 1; i <= numL; i++ {
		start[i] += start[i-1]
	}
	copy(cur, start[:numL])
	e.idScratch = ids
	if cap(e.idSorted) < len(ids) {
		e.idSorted = make([]int, len(ids))
	}
	sorted := e.idSorted[:len(ids)]
	for _, id := range ids {
		l := e.level[id]
		sorted[cur[l]] = id
		cur[l]++
	}

	// Each level fans out over the worker pool; par.For runs a lone chunk
	// inline, so at width 1 this is the serial pass. Levelization
	// guarantees that every predecessor read by arrOf sits at a strictly
	// lower level than the pin being evaluated (and every successor read by
	// reqOf at a strictly higher one); pins trapped on combinational cycles
	// read nothing. Each level is therefore a clean barrier, every pin is
	// written exactly once at its own slot, and the values are
	// bit-identical for any worker count.
	for l := 0; l < numL; l++ {
		lv := sorted[start[l]:start[l+1]]
		par.For(e.Workers, len(lv), func(_, lo, hi int) {
			for _, id := range lv[lo:hi] {
				e.arr[id] = e.arrOf(e.pinOf[id])
			}
		})
	}
	for l := numL - 1; l >= 0; l-- {
		lv := sorted[start[l]:start[l+1]]
		par.For(e.Workers, len(lv), func(_, lo, hi int) {
			for _, id := range lv[lo:hi] {
				e.req[id] = e.reqOf(e.pinOf[id])
			}
		})
	}
	e.Recomputes += 2 * len(ids)
}

// fill files the pending pins among ids into the level buckets and
// returns the lowest and highest level it filed (lo > hi when none). An
// entry whose pin was tombstoned after it was marked loses its pending
// flag instead of leaking a permanent true that would shadow the slot in
// any future scan.
func (e *Engine) fill(ids []int, pending []bool) (lo, hi int32) {
	lo, hi = math.MaxInt32, -1
	for _, id := range ids {
		if id >= len(e.pinOf) || e.pinOf[id] == nil {
			pending[id] = false
		} else if pending[id] {
			l := e.level[id]
			e.bucketPush(l, id)
			lo, hi = min(lo, l), max(hi, l)
		}
	}
	return lo, hi
}

// drainArr recomputes the arrivals filed between levels lo and hi, and
// every arrival they change, in one ascending sweep over the level
// buckets: a monotone bucket queue, at O(1) per push instead of a
// priority queue's O(log n) level-array comparisons, which dominated the
// incremental-flush profile at bulk design sizes. Under a valid
// stratification a pin's arrival reads only lower levels and every
// propagation pushes strictly upward, so the pins of one bucket are
// independent: any drain order within a level yields the same values, the
// same pushes and the same Recomputes (the argument flushAll's parallel
// levels rest on), and buckets drain unsorted. Cyclic graphs are the one
// exception (frozen pins keep whatever level the aborted Kahn pass left,
// so a push can land at or below the sweep cursor); the sweep then
// rewinds to the pushed level — already-drained entries are skipped by
// the pend flags — and each bucket is drained in ID order, preserving
// correctness at priority-queue-grade cost. A changed arrival pushes its
// successors into the sweep.
func (e *Engine) drainArr(lo, hi int32) {
	cur, rewind := int32(0), int32(-1)
	push := func(q int) {
		if e.inPendArr[q] {
			return
		}
		e.inPendArr[q] = true
		l := e.level[q]
		e.bucketPush(l, q)
		hi = max(hi, l)
		if l <= cur && (rewind < 0 || l < rewind) {
			rewind = l
		}
	}
	for l := lo; l <= hi; l++ {
		cur = l
		b := e.buckets[l]
		if len(b) == 0 {
			continue
		}
		if e.HasCycles {
			sort.Ints(b)
		}
		for _, id := range b {
			if !e.inPendArr[id] {
				continue
			}
			e.inPendArr[id] = false
			p := e.pinOf[id]
			v := e.evalArr(p)
			if math.Abs(v-e.arr[id]) <= eps {
				continue
			}
			e.arr[id] = v
			// appendSucc, inlined: this is the engine's hottest loop.
			fl := e.flags[id]
			if fl&flagClockPin != 0 {
				continue
			}
			if fl&flagOutput != 0 {
				if !dataNet(p.Net) {
					continue
				}
				for _, q := range p.Net.Pins() {
					if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 {
						push(q.ID)
					}
				}
				continue
			}
			if fl&flagEnd != 0 {
				continue
			}
			if zid := e.outPin[id]; zid != 0 {
				push(int(zid - 1))
			}
		}
		if rewind >= 0 {
			// Cycle-frozen push at or below the cursor: leave this bucket
			// intact (drained ids fail the pend check on the revisit) and
			// resume from the lowest pushed level.
			l = rewind - 1
			rewind = -1
			continue
		}
		e.buckets[l] = b[:0]
	}
}

// drainReq mirrors drainArr for required times: the sweep descends,
// reqSettled decides, and a changed required time pushes its
// predecessors, so the rewind guard fires on upward pushes instead.
func (e *Engine) drainReq(lo, hi int32) {
	cur, rewind := int32(0), int32(-1)
	push := func(q int) {
		if e.inPendReq[q] {
			return
		}
		e.inPendReq[q] = true
		l := e.level[q]
		e.bucketPush(l, q)
		lo = min(lo, l)
		if l >= cur && (rewind < 0 || l > rewind) {
			rewind = l
		}
	}
	for l := hi; l >= lo; l-- {
		cur = l
		b := e.buckets[l]
		if len(b) == 0 {
			continue
		}
		if e.HasCycles {
			sort.Ints(b)
		}
		for _, id := range b {
			if !e.inPendReq[id] {
				continue
			}
			e.inPendReq[id] = false
			p := e.pinOf[id]
			v := e.evalReq(p)
			if e.reqSettled(id, v) {
				continue
			}
			e.req[id] = v
			// appendPred, inlined (see drainArr).
			fl := e.flags[id]
			if fl&flagClockPin != 0 {
				continue
			}
			if fl&flagOutput == 0 {
				if !dataNet(p.Net) {
					continue
				}
				if d := p.Net.Driver(); d != nil {
					push(d.ID)
				}
				continue
			}
			if fl&flagBegin != 0 {
				continue
			}
			for _, q := range p.Gate.Pins {
				if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 {
					push(q.ID)
				}
			}
		}
		if rewind >= 0 {
			l = rewind + 1
			rewind = -1
			continue
		}
		e.buckets[l] = b[:0]
	}
}

// reqSettled reports whether pin id's recomputed required time v leaves
// its predecessors as they are. The v == old test settles a required time
// that stays +Inf, where |Inf−Inf| is NaN; on a cycle-frozen pin, whose
// +Inf never changes, re-pushing would chase a loop of frozen pins
// forever.
func (e *Engine) reqSettled(id int, v float64) bool {
	old := e.req[id]
	return math.Abs(v-old) <= eps || v == old
}

// ---- queries ----

// Arrival returns the arrival time at pin p in ps.
func (e *Engine) Arrival(p *netlist.Pin) float64 {
	e.Flush()
	return e.arr[p.ID]
}

// Required returns the required time at pin p in ps.
func (e *Engine) Required(p *netlist.Pin) float64 {
	e.Flush()
	return e.req[p.ID]
}

// Slack returns required − arrival at pin p.
func (e *Engine) Slack(p *netlist.Pin) float64 {
	e.Flush()
	return e.req[p.ID] - e.arr[p.ID]
}

// WorstSlack returns the minimum slack over all end points (+Inf if the
// design has none).
func (e *Engine) WorstSlack() float64 {
	e.Flush()
	ws := math.Inf(1)
	for _, p := range e.endpoints {
		if s := e.req[p.ID] - e.arr[p.ID]; s < ws {
			ws = s
		}
	}
	return ws
}

// TNS returns the total negative slack over end points.
func (e *Engine) TNS() float64 {
	e.Flush()
	var t float64
	for _, p := range e.endpoints {
		if s := e.req[p.ID] - e.arr[p.ID]; s < 0 {
			t += s
		}
	}
	return t
}

// NetSlack returns the slack of net n: the worst slack among its sink pins
// (+Inf for unloaded nets).
func (e *Engine) NetSlack(n *netlist.Net) float64 {
	e.Flush()
	s := math.Inf(1)
	for _, p := range n.Pins() {
		if p.Dir() != cell.Input || p.Port().Clock {
			continue
		}
		if v := e.req[p.ID] - e.arr[p.ID]; v < s {
			s = v
		}
	}
	return s
}

// GateSlack returns the worst slack among the gate's non-clock pins.
func (e *Engine) GateSlack(g *netlist.Gate) float64 {
	e.Flush()
	s := math.Inf(1)
	for _, p := range g.Pins {
		if e.flags[p.ID]&flagClockPin != 0 {
			continue
		}
		if v := e.req[p.ID] - e.arr[p.ID]; v < s {
			s = v
		}
	}
	return s
}

// CriticalNets returns the critical region as nets whose slack is within
// margin of the worst slack (and at most zero): the
// obtain_critical_region(design) primitive of §4.3.
func (e *Engine) CriticalNets(margin float64) []*netlist.Net {
	ws := e.WorstSlack()
	if ws >= 0 {
		return nil
	}
	thr := math.Min(ws+margin, 0)
	var out []*netlist.Net
	e.nl.Nets(func(n *netlist.Net) {
		if n.Kind != netlist.Signal {
			return
		}
		if e.NetSlack(n) <= thr {
			out = append(out, n)
		}
	})
	return out
}

// CriticalGates returns gates whose slack is within margin of the worst
// (and at most zero).
func (e *Engine) CriticalGates(margin float64) []*netlist.Gate {
	ws := e.WorstSlack()
	if ws >= 0 {
		return nil
	}
	thr := math.Min(ws+margin, 0)
	var out []*netlist.Gate
	e.nl.Gates(func(g *netlist.Gate) {
		if g.IsPad() {
			return
		}
		if e.GateSlack(g) <= thr {
			out = append(out, g)
		}
	})
	return out
}

// Endpoints returns the current end-point pins (valid until the next
// topology change).
func (e *Engine) Endpoints() []*netlist.Pin {
	e.Flush()
	return e.endpoints
}

// ---- netlist.Observer ----

// GateMoved implements netlist.Observer.
func (e *Engine) GateMoved(g *netlist.Gate) {
	e.heard = true
	if e.level == nil || e.allDirty {
		return // first Flush computes everything anyway
	}
	for _, p := range g.Pins {
		if p.Net != nil && dataNet(p.Net) {
			e.touchNet(p.Net)
		}
	}
}

// GateResized implements netlist.Observer.
func (e *Engine) GateResized(g *netlist.Gate) {
	e.heard = true
	if e.level == nil {
		return
	}
	if e.levelsValid {
		// ReplaceCell may swap a pin's derived role (clock/begin/end) even
		// with identical port shapes; any drift invalidates the leveling
		// and the end-point list wholesale. SetSize and friends never
		// drift, so the common case is a cheap confirming scan. The cached
		// Late product is refreshed unconditionally — the replacement cell
		// may change it without touching any role. ReplaceCell keeps port
		// directions, so only the derived roles can drift.
		for _, p := range g.Pins {
			if p.ID >= len(e.flags) {
				e.levelsValid = false
				break
			}
			e.late[p.ID] = p.Port().Late * e.nl.Lib.Tech.Tau
			if roleFlags(p) != e.flags[p.ID]&^flagOnCycle {
				e.levelsValid = false
				break
			}
		}
	}
	if e.allDirty {
		return
	}
	for _, p := range g.Pins {
		if p.Net == nil || !dataNet(p.Net) {
			continue
		}
		if p.Dir() == cell.Input {
			e.touchNet(p.Net) // our input cap loads the driving net
		}
	}
	if z := g.Output(); z != nil {
		e.markArr(z.ID) // drive strength changed
	}
	for _, p := range g.Pins {
		if p.Dir() == cell.Input {
			e.markReq(p.ID)
		}
	}
}

// NetChanged implements netlist.Observer. Connectivity changes repair the
// levelization in place (relaxNet) and mark the edit site dirty.
func (e *Engine) NetChanged(n *netlist.Net) {
	e.heard = true
	if e.level == nil {
		return
	}
	if e.levelsValid {
		e.relaxNet(n)
	}
	if e.allDirty {
		return
	}
	e.touchNet(n)
}

// GateAdded implements netlist.Observer. Both fresh and revived gates
// arrive with every pin disconnected, so registration is purely local:
// grow the pin-indexed arrays, record flags and list membership, and lift
// each combinational output above the gate's inputs (the only timing edges
// a disconnected gate has). Only genuinely new pin IDs are marked dirty —
// a revived pin keeps its stale values exactly as a full relevel would,
// and the reconnecting edits mark it through touchNet.
func (e *Engine) GateAdded(g *netlist.Gate) {
	e.heard = true
	if e.level == nil || !e.levelsValid {
		return // the next relevel registers (and marks) the pins
	}
	oldNP := len(e.pinOf)
	e.growPinArrays(e.nl.NumPins())
	zid := outRef(g)
	for _, p := range g.Pins {
		if e.register(p, zid)&flagEnd != 0 {
			e.endpoints = insertByID(e.endpoints, p)
		}
	}
	for _, p := range g.Pins {
		if p.Dir() != cell.Output || e.flags[p.ID]&(flagClockPin|flagBegin) != 0 {
			continue
		}
		lv := int32(0)
		for _, q := range g.Pins {
			if q.Dir() == cell.Input && e.flags[q.ID]&flagClockPin == 0 && e.level[q.ID] >= lv {
				lv = e.level[q.ID] + 1
			}
		}
		if e.level[p.ID] < lv {
			e.level[p.ID] = lv
		}
	}
	if e.allDirty {
		return
	}
	for _, p := range g.Pins {
		if p.ID >= oldNP {
			e.markArr(p.ID)
			e.markReq(p.ID)
		}
	}
}

// GateRemoved implements netlist.Observer. The per-pin Disconnects have
// already fired (RemoveGate detaches every pin first), so all that remains
// is tombstoning: nil the pinOf slots so flushes skip them, and drop the
// gate's pins from the end-point list in place, preserving ID order.
func (e *Engine) GateRemoved(g *netlist.Gate) {
	e.heard = true
	if e.level == nil || !e.levelsValid {
		return // the next relevel rebuilds pinOf and the lists anyway
	}
	hadEnd := false
	for _, p := range g.Pins {
		if p.ID >= len(e.pinOf) {
			continue
		}
		if e.flags[p.ID]&flagEnd != 0 {
			hadEnd = true
		}
		e.flags[p.ID] = 0
		e.pinOf[p.ID] = nil
	}
	if hadEnd {
		e.endpoints = dropGatePins(e.endpoints, g)
	}
}

// ---- shared first pass ----

// Pass is an engine's first full timing pass, frozen: per pin the
// arrival and required times, level, flags, cached Late product and
// output pin; the end points by pin ID; and the delay calculator's net
// solutions. It also records what the pass was computed under — delay
// mode, period, setup, BinDim, wire-load model — and the netlist's edit
// and kind epochs. Nothing writes it after FirstPass, so any number of
// engines install it at once.
type Pass struct {
	mode                  delay.Mode
	period, setup, binDim float64
	wlm                   delay.WireLoadModel
	edits, kindEpoch      uint64

	arr, req, late []float64
	level, outPin  []int32
	flags          []pinFlag
	endpoints      []int32
	hasCycles      bool
	solves         *delay.Solutions
}

// FirstPass runs the first full timing pass of a fresh analyzer stack on
// nl — a Steiner cache seeded with trees (indexed by net ID, as
// steiner.Cache.Seed takes them), a calculator in mode m, an engine with
// the given period and the default setup — over at most workers
// goroutines, and returns it frozen. The stack is closed afterwards.
func FirstPass(nl *netlist.Netlist, period float64, trees []*steiner.Tree, m delay.Mode, workers int) *Pass {
	st := steiner.NewCache(nl)
	st.Seed(trees)
	calc := delay.NewCalculator(nl, st, m)
	e := New(nl, calc, period)
	e.Workers = workers
	e.Flush()
	e.Close()
	calc.Close()
	st.Close()
	p := &Pass{
		mode: m, period: period, setup: e.Setup, binDim: calc.BinDim, wlm: *calc.WLM,
		edits: nl.Edits, kindEpoch: nl.KindEpoch,
		arr: e.arr, req: e.req, late: e.late, level: e.level, outPin: e.outPin, flags: e.flags,
		endpoints: make([]int32, len(e.endpoints)), hasCycles: e.HasCycles, solves: calc.Share(),
	}
	for i, q := range e.endpoints {
		p.endpoints[i] = int32(q.ID)
	}
	return p
}

// Seed lets the engine install its first full pass instead of computing
// it: at that pass it asks src for the pass of its current delay mode
// (passing its Workers, the width to compute it at) and installs it, if
// and only if it is exactly what the engine would compute. That holds
// when the engine has never flushed, no observer callback has fired
// since New, the netlist's Edits and KindEpoch are the pass's, and
// Period, Setup and the calculator's mode, BinDim and wire-load model
// are what the pass was computed under. src must return a pass computed
// on a netlist laid out pin for pin like this one: for a fork of a
// netio.State, a FirstPass on another fork of it (scenario.ForkContext).
func (e *Engine) Seed(src func(m delay.Mode, workers int) *Pass) { e.seed = src }

// install makes a seeded engine's first full pass the shared one when
// Seed's conditions hold, and reports whether it did. It copies the
// per-pin arrays into the engine's own, rebuilds pinOf and the end-point
// list from the netlist's pins by ID, and installs the net solutions
// copy-on-write. Recomputes and the calculator's Solves do not count it.
func (e *Engine) install() bool {
	if e.seed == nil || e.heard {
		return false
	}
	p := e.seed(e.Calc.Mode, e.Workers)
	np := e.nl.NumPins()
	if p.mode != e.Calc.Mode || p.period != e.Period || p.setup != e.Setup ||
		p.binDim != e.Calc.BinDim || p.wlm != *e.Calc.WLM ||
		p.edits != e.nl.Edits || p.kindEpoch != e.nl.KindEpoch || len(p.arr) != np {
		return false
	}
	e.growPinArrays(np)
	copy(e.arr, p.arr)
	copy(e.req, p.req)
	copy(e.late, p.late)
	copy(e.level, p.level)
	copy(e.outPin, p.outPin)
	copy(e.flags, p.flags)
	e.nl.Gates(func(g *netlist.Gate) {
		for _, q := range g.Pins {
			e.pinOf[q.ID] = q
		}
	})
	e.endpoints = e.endpoints[:0]
	for _, id := range p.endpoints {
		e.endpoints = append(e.endpoints, e.pinOf[id])
	}
	e.HasCycles = p.hasCycles
	e.levelsValid, e.kindEpoch, e.allDirty = true, e.nl.KindEpoch, false
	e.Calc.Install(p.solves)
	return true
}

// ---- small helpers ----

// growPinArrays sizes every pin-indexed array to np pins.
func (e *Engine) growPinArrays(np int) {
	e.arr = grow(e.arr, np)
	e.req = grow(e.req, np)
	e.late = grow(e.late, np)
	e.level = grow(e.level, np)
	e.outPin = grow(e.outPin, np)
	e.flags = grow(e.flags, np)
	e.inPendArr = grow(e.inPendArr, np)
	e.inPendReq = grow(e.inPendReq, np)
	e.pinOf = grow(e.pinOf, np)
}

// grow extends a pin-indexed array with amortized doubling: GateAdded
// grows the arrays a few pins at a time, so exact-fit reallocation would
// copy the whole design per added gate. The reserve tail past len is zero
// (make zeroes the full capacity and nothing ever writes past len),
// matching what a fresh exact-size array would hold.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]T, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

// insertByID inserts p into s preserving ascending pin-ID order — the
// order relevel produces (gate slabs append in creation order, so gate
// iteration yields ascending pin IDs) and the order TNS summation depends
// on for bit-identical results. Fresh pins take the append fast path;
// revived pins binary-insert.
func insertByID(s []*netlist.Pin, p *netlist.Pin) []*netlist.Pin {
	if n := len(s); n == 0 || s[n-1].ID < p.ID {
		return append(s, p)
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= p.ID })
	if i < len(s) && s[i].ID == p.ID {
		return s
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

// dropGatePins filters g's pins out of s in place, preserving order.
func dropGatePins(s []*netlist.Pin, g *netlist.Gate) []*netlist.Pin {
	out := s[:0]
	for _, p := range s {
		if p.Gate != g {
			out = append(out, p)
		}
	}
	return out
}
