package timing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tps/internal/netlist"
)

// flushedCopy returns a copy of e, detached from the netlist, after a
// Flush of the copy. It clones everything a Flush writes and shares the
// rest, so e keeps its pending work.
func (e *Engine) flushedCopy() *Engine {
	c := *e
	c.arr = slices.Clone(e.arr)
	c.req = slices.Clone(e.req)
	c.inPendArr = slices.Clone(e.inPendArr)
	c.inPendReq = slices.Clone(e.inPendReq)
	c.pendArr = slices.Clone(e.pendArr)
	c.pendReq = slices.Clone(e.pendReq)
	c.removed = nil
	c.buckets = nil
	c.Flush()
	return &c
}

// probeStats counts what a probe script exercised.
type probeStats struct {
	probes  int // GateSlack calls
	local   int // probes that took the cone-local path
	drained int // cone-local probes that recomputed a pin
}

// runProbeScript replays ops, three bytes each, on s: the drain tests'
// edits (move, resize, gain, buffer insertion and removal), a full
// invalidation or query, the revival of a removed buffer spliced behind
// another gate, and GateSlack probes of live and removed gates. After
// every probe a Flush of a copy of the engine must leave the probed
// gate's arrival and required times bit-identical, and GateSlack must
// have returned the slack they give. At every full query and at the end,
// every pin must match a freshly built engine.
func runProbeScript(t *testing.T, s *drainSide, ops []byte) probeStats {
	t.Helper()
	var st probeStats
	for i := 0; i+3 <= len(ops); i += 3 {
		kind, a, b := ops[i]%8, ops[i+1], ops[i+2]
		pick := int(a)<<8 | int(b)
		switch kind {
		case 5:
			if a%4 == 0 {
				s.eng.InvalidateAll()
			} else {
				checkMatchesFresh(t, s.nl, s.eng.Period, s.eng, "full query")
			}
		case 6:
			s.reviveBuffer(pick)
		case 7:
			s.probe(t, pick, &st)
		default:
			s.apply(drainEdit{
				kind: int(kind),
				pick: pick,
				dx:   float64(a%90) - 40,
				dy:   float64(b%90) - 40,
				size: int(a),
				gain: 2 + float64(b%5),
			})
		}
	}
	checkMatchesFresh(t, s.nl, s.eng.Period, s.eng, "end of script")
	return st
}

// probe calls GateSlack on a gate picked among all gates ever created,
// removed ones included, and checks it against a flushed copy.
func (s *drainSide) probe(t *testing.T, pick int, st *probeStats) {
	t.Helper()
	e := s.eng
	g := s.nl.RawGate(pick % s.nl.GateCap())
	local := !(e.levelsStale() || e.allDirty || e.HasCycles)
	before := e.Recomputes
	got := e.GateSlack(g)
	st.probes++
	if local {
		st.local++
		if e.Recomputes > before {
			st.drained++
		}
	}
	ref := e.flushedCopy()
	want := math.Inf(1)
	for _, p := range g.Pins {
		for _, v := range [][2]float64{{e.arr[p.ID], ref.arr[p.ID]}, {e.req[p.ID], ref.req[p.ID]}} {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				t.Fatalf("probe %d of %s (local=%v): pin %s holds %v, a Flush gives %v",
					st.probes, g.Name, local, p.Name(), v[0], v[1])
			}
		}
		if v := ref.req[p.ID] - ref.arr[p.ID]; e.flags[p.ID]&flagClockPin == 0 && v < want {
			want = v
		}
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("probe %d of %s: GateSlack %v, flushed slack %v", st.probes, g.Name, got, want)
	}
}

// reviveBuffer revives the most recently removed buffer and splices it
// behind the output of a picked gate, as a rollback would restore it.
func (s *drainSide) reviveBuffer(pick int) {
	nl := s.nl
	var buf *netlist.Gate
	for id := nl.GateCap() - 1; id >= 0 && buf == nil; id-- {
		if g := nl.RawGate(id); g != nil && g.Removed {
			buf = g
		}
	}
	g := s.movable[pick%len(s.movable)]
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

// TestGateSlackMatchesFlush interleaves GateSlack probes with random
// edits and full queries, on an acyclic design and on one with a
// combinational cycle, where every probe falls back to Flush. Each
// script's final Recomputes is pinned, so a probe that drains more or
// fewer pins than the engine did when the pin was taken fails here, not
// only in the flow goldens' totals.
func TestGateSlackMatchesFlush(t *testing.T) {
	wantRecomputes := map[bool]int{false: 51314, true: 52508}
	for _, cyclic := range []bool{false, true} {
		rng := rand.New(rand.NewSource(4242))
		ops := make([]byte, 3*900)
		for i := 0; i < len(ops); i += 3 {
			ops[i] = byte(rng.Intn(8))
			if rng.Intn(2) == 0 {
				ops[i] = 7 // half the ops probe
			}
			ops[i+1], ops[i+2] = byte(rng.Intn(256)), byte(rng.Intn(256))
		}
		s := newDrainSide(t, cyclic)
		st := runProbeScript(t, s, ops)
		s.close()
		t.Logf("cyclic=%v: %+v", cyclic, st)
		if got := s.eng.Recomputes; got != wantRecomputes[cyclic] {
			t.Fatalf("cyclic=%v: Recomputes %d, want %d", cyclic, got, wantRecomputes[cyclic])
		}
		if st.probes < 300 {
			t.Fatalf("cyclic=%v: only %d probes", cyclic, st.probes)
		}
		if !cyclic && (st.local < 200 || st.drained < 50) {
			t.Fatalf("acyclic: only %d cone-local probes, %d of them draining", st.local, st.drained)
		}
		if cyclic && st.local != 0 {
			t.Fatalf("cyclic: %d probes took the cone-local path", st.local)
		}
	}
}

// FuzzGateSlackEquivalence runs fuzzed probe scripts through the checks
// of runProbeScript.
func FuzzGateSlackEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 7, 3, 4, 3, 9, 9, 7, 5, 6, 4, 0, 0, 7, 8, 9, 6, 1, 1, 7, 2, 2}, false)
	f.Add([]byte{3, 5, 5, 7, 0, 1, 1, 30, 2, 7, 4, 4, 5, 1, 0, 7, 6, 6}, true)
	f.Fuzz(func(t *testing.T, ops []byte, cyclic bool) {
		if len(ops) > 3*400 {
			ops = ops[:3*400]
		}
		s := newDrainSide(t, cyclic)
		defer s.close()
		runProbeScript(t, s, ops)
	})
}
