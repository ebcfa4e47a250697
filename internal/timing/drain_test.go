package timing

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tps/internal/cell"
	"tps/internal/delay"
	"tps/internal/netlist"
)

// flushSorted is Flush with every level bucket drained in ascending pin
// ID order, cyclic or not — the drain the engine used before acyclic
// buckets went unsorted. flushArrSorted and flushReqSorted keep that
// code, with the production settle rule (reqSettled), as the reference
// TestDrainOrderMatchesSortedReference checks Flush against.
func (e *Engine) flushSorted() {
	e.ensure()
	if e.allDirty {
		e.flushAll()
		return
	}
	if len(e.pendArr) > 0 {
		e.flushArrSorted()
	}
	if len(e.pendReq) > 0 {
		e.flushReqSorted()
	}
}

func (e *Engine) flushArrSorted() {
	lo := int32(math.MaxInt32)
	for _, id := range e.pendArr {
		if id < len(e.pinOf) && e.pinOf[id] != nil {
			e.inPendArr[id] = true // ids marked before arrays grew
			e.bucketPush(e.level[id], id)
			if e.level[id] < lo {
				lo = e.level[id]
			}
		} else if id < len(e.inPendArr) {
			e.inPendArr[id] = false
		}
	}
	e.pendArr = e.pendArr[:0]
	cur := int32(0)
	rewind := int32(-1)
	push := func(qid int) {
		if !e.inPendArr[qid] {
			e.inPendArr[qid] = true
			ql := e.level[qid]
			e.bucketPush(ql, qid)
			if ql <= cur && (rewind < 0 || ql < rewind) {
				rewind = ql
			}
		}
	}
	for l := lo; l < int32(len(e.buckets)); l++ {
		cur = l
		b := e.buckets[l]
		if len(b) == 0 {
			continue
		}
		sort.Ints(b)
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
			l = rewind - 1
			rewind = -1
			continue
		}
		e.buckets[l] = b[:0]
	}
}

func (e *Engine) flushReqSorted() {
	hi := int32(-1)
	for _, id := range e.pendReq {
		if id < len(e.pinOf) && e.pinOf[id] != nil {
			e.inPendReq[id] = true // ids marked before arrays grew
			e.bucketPush(e.level[id], id)
			if e.level[id] > hi {
				hi = e.level[id]
			}
		} else if id < len(e.inPendReq) {
			e.inPendReq[id] = false
		}
	}
	e.pendReq = e.pendReq[:0]
	cur := int32(0)
	rewind := int32(-1)
	push := func(qid int) {
		if !e.inPendReq[qid] {
			e.inPendReq[qid] = true
			ql := e.level[qid]
			e.bucketPush(ql, qid)
			if ql >= cur && (rewind < 0 || ql > rewind) {
				rewind = ql
			}
		}
	}
	for l := hi; l >= 0; l-- {
		cur = l
		b := e.buckets[l]
		if len(b) == 0 {
			continue
		}
		sort.Ints(b)
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

// drainEdit is one random netlist edit, drawn once and replayed on both
// engines' netlists.
type drainEdit struct {
	kind   int
	pick   int
	dx, dy float64
	size   int
	gain   float64
}

// drainSide is one engine of the differential pair, with its own copy of
// the design and the gates the edits pick from.
type drainSide struct {
	nl      *netlist.Netlist
	eng     *Engine
	movable []*netlist.Gate
	close   func()
}

func newDrainSide(t *testing.T, cyclic bool) *drainSide {
	t.Helper()
	nl, period := placedDesign(250, 91)
	if cyclic {
		closeLoop(t, nl)
	}
	eng, closeEng := engineStack(nl, period, 1, delay.Actual)
	s := &drainSide{nl: nl, eng: eng, close: closeEng}
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			s.movable = append(s.movable, g)
		}
	})
	return s
}

// closeLoop makes a combinational cycle: the first gate (in ID order)
// with a signal input and a driven output gets an inverter from its
// output back into that input.
func closeLoop(t *testing.T, nl *netlist.Netlist) {
	t.Helper()
	var g *netlist.Gate
	var in *netlist.Pin
	nl.Gates(func(c *netlist.Gate) {
		if g != nil || c.Fixed || c.IsSequential() || c.Output() == nil || c.Output().Net == nil {
			return
		}
		for _, p := range c.Pins {
			if p.Dir() == cell.Input && p.Net != nil && p.Net.Kind == netlist.Signal {
				g, in = c, p
				return
			}
		}
	})
	if g == nil {
		t.Fatal("no gate to close a loop through")
	}
	inv := nl.AddGate("loop", nl.Lib.Cell("INV"))
	nl.MoveGate(inv, g.X+5, g.Y)
	back := nl.AddNet("loopback")
	nl.Connect(inv.Pin("A"), g.Output().Net)
	nl.Connect(inv.Output(), back)
	nl.Disconnect(in)
	nl.Connect(in, back)
}

// apply replays ed on this side: a move, resize or gain change of a
// picked gate, a buffer spliced behind its output, the removal of the
// latest such buffer, a full invalidation, or the revival of the most
// recently removed buffer spliced behind the picked gate's output, as a
// rollback would restore it.
func (s *drainSide) apply(ed drainEdit) {
	nl := s.nl
	g := s.movable[ed.pick%len(s.movable)]
	switch ed.kind {
	case 0:
		nl.MoveGate(g, g.X+ed.dx, g.Y+ed.dy)
	case 1:
		if !g.IsSequential() && !g.IsPad() && len(g.Cell.Sizes) > 1 {
			nl.SetSize(g, ed.size%len(g.Cell.Sizes))
		}
	case 2:
		nl.SetGain(g, ed.gain)
	case 3:
		z := g.Output()
		if z == nil || z.Net == nil || z.Net.Kind != netlist.Signal {
			return
		}
		out := z.Net
		buf := nl.AddGate("dbuf", nl.Lib.Cell("BUF"))
		nl.MoveGate(buf, g.X+3, g.Y+2)
		mid := nl.AddNet("dmid")
		nl.Disconnect(z)
		nl.Connect(z, mid)
		nl.Connect(buf.Pin("A"), mid)
		nl.Connect(buf.Output(), out)
		s.movable = append(s.movable, buf)
	case 4:
		for i := len(s.movable) - 1; i >= 0; i-- {
			b := s.movable[i]
			if b.Removed || b.Name != "dbuf" {
				continue
			}
			src, dst := b.Pin("A").Net, b.Output().Net
			if src == nil || dst == nil {
				return
			}
			drv := src.Driver()
			nl.RemoveGate(b)
			if drv != nil {
				nl.MovePin(drv, dst)
			}
			s.movable = append(s.movable[:i], s.movable[i+1:]...)
			return
		}
	case 5:
		s.eng.InvalidateAll()
	case 6:
		var buf *netlist.Gate
		for id := nl.GateCap() - 1; id >= 0 && buf == nil; id-- {
			if r := nl.RawGate(id); r != nil && r.Removed {
				buf = r
			}
		}
		z := g.Output()
		if buf == nil || z == nil || z.Net == nil || z.Net.Kind != netlist.Signal {
			return
		}
		out := z.Net
		nl.ReviveGate(buf)
		nl.MoveGate(buf, g.X+3, g.Y+2)
		mid := nl.AddNet("rmid")
		nl.Disconnect(z)
		nl.Connect(z, mid)
		nl.Connect(buf.Pin("A"), mid)
		nl.Connect(buf.Output(), out)
		s.movable = append(s.movable, buf)
	}
}

// runDrainScript checks that level buckets may drain unsorted on acyclic
// graphs, because the pins of one level are independent. Two engines on
// identical designs replay the same steps — random moves, resizes, gain
// changes, buffer insertions, removals and revivals, drawn from seed; one
// flushes with Flush, the other with the ID-sorted reference. After every
// flush their arrival and required times must be bit-identical and their
// Recomputes equal — on an acyclic design, and on one with a
// combinational cycle, where Flush keeps the sorted drain. At the end
// every pin must match a freshly built engine. It returns the number of
// flushes.
func runDrainScript(t *testing.T, seed int64, cyclic bool, steps int) int {
	t.Helper()
	a, b := newDrainSide(t, cyclic), newDrainSide(t, cyclic)
	defer a.close()
	defer b.close()
	rng := rand.New(rand.NewSource(seed))
	flushes := 0
	for step := 0; step < steps; step++ {
		ed := drainEdit{
			kind: rng.Intn(7),
			pick: rng.Intn(1 << 20),
			dx:   float64(rng.Intn(90) - 40),
			dy:   float64(rng.Intn(90) - 40),
			size: rng.Intn(8),
			gain: 2 + float64(rng.Intn(5)),
		}
		if ed.kind == 5 && rng.Intn(4) != 0 {
			ed.kind = 0 // full invalidations stay rare
		}
		a.apply(ed)
		b.apply(ed)
		if rng.Intn(3) != 0 {
			continue // let pending sets build up across several edits
		}
		a.eng.Flush()
		b.eng.flushSorted()
		flushes++
		if a.eng.Recomputes != b.eng.Recomputes {
			t.Fatalf("cyclic=%v step %d: Recomputes %d (Flush) != %d (sorted)",
				cyclic, step, a.eng.Recomputes, b.eng.Recomputes)
		}
		for name, pair := range map[string][2][]float64{
			"arrival":  {a.eng.arr, b.eng.arr},
			"required": {a.eng.req, b.eng.req},
		} {
			x, y := pair[0], pair[1]
			if len(x) != len(y) {
				t.Fatalf("cyclic=%v step %d: %s arrays of %d vs %d pins", cyclic, step, name, len(x), len(y))
			}
			for id := range x {
				if math.Float64bits(x[id]) != math.Float64bits(y[id]) {
					t.Fatalf("cyclic=%v step %d: pin %d %s %v (Flush) != %v (sorted)",
						cyclic, step, id, name, x[id], y[id])
				}
			}
		}
	}
	if flushes > 0 && (a.eng.HasCycles != cyclic || b.eng.HasCycles != cyclic) {
		t.Fatalf("cyclic=%v: HasCycles = %v / %v", cyclic, a.eng.HasCycles, b.eng.HasCycles)
	}
	checkMatchesFresh(t, a.nl, a.eng.Period, a.eng, "end of script")
	return flushes
}

// TestDrainOrderMatchesSortedReference runs one fixed-seed drain script
// per design kind.
func TestDrainOrderMatchesSortedReference(t *testing.T) {
	for _, cyclic := range []bool{false, true} {
		if flushes := runDrainScript(t, 2024, cyclic, 400); flushes < 50 {
			t.Fatalf("cyclic=%v: only %d flushes", cyclic, flushes)
		}
	}
}

// FuzzDrainOrderEquivalence runs fuzzed drain scripts: a seed for the
// edits, an acyclic or cyclic design, and an edit count (at most 400).
func FuzzDrainOrderEquivalence(f *testing.F) {
	f.Add(int64(2024), false, uint16(400))
	f.Add(int64(7), true, uint16(150))
	f.Fuzz(func(t *testing.T, seed int64, cyclic bool, edits uint16) {
		runDrainScript(t, seed, cyclic, min(int(edits), 400))
	})
}
