// Package synth adapts the traditional logic-synthesis transforms —
// cloning, buffer insertion, pin swapping, remapping, and electrical
// correction — to the TPS environment (§4.6, §5): every transform places
// the cells it creates with minimal perturbation, at the spot its
// geometry picks, and accepts or rejects each change through the
// incremental timing analyzer. Unlike the paper, no transform calls
// circuit relocation to make room: a new cell may overfill its bin, and
// legalization resolves it later (DESIGN.md §2, EXPERIMENTS.md E11).
package synth

import (
	"math"
	"sort"
	"strconv"

	"tps/internal/cell"
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/timing"
)

// minCloneFanout is the smallest fanout worth cloning.
const minCloneFanout = 4

// maxCapPerX is the electrical limit: a gate at drive X may drive at most
// maxCapPerX·X fF.
const maxCapPerX = 80.0

// Optimizer bundles the analyzers and utilities the transforms share.
type Optimizer struct {
	NL  *netlist.Netlist
	Eng *timing.Engine
	Im  *image.Image
	// Margin widens the critical region (ps).
	Margin float64
	// MinGain is the smallest timing improvement (ps) that justifies the
	// area cost of an accepted structural change — the area term of the
	// paper's "timing, noise and area objectives" scoring.
	MinGain float64
	// Stop, when non-nil, is polled between candidates (safe commit
	// points: every proposed change has been accepted or fully undone).
	// A non-nil return ends the pass early with the work so far kept —
	// the scenario engine's cancellation and maxsec hooks plug in here.
	Stop func() error

	serial int // uniquifies generated instance names

	// Scratch slices reused across candidates: sink enumeration and the
	// sorted copy farGroup makes. Valid only within one transform call —
	// each candidate overwrites them.
	sinkScratch []*netlist.Pin
	farScratch  []*netlist.Pin
}

// New returns an optimizer with paper-scale defaults.
func New(nl *netlist.Netlist, eng *timing.Engine, im *image.Image) *Optimizer {
	return &Optimizer{
		NL: nl, Eng: eng, Im: im,
		Margin: 60, MinGain: 0.5,
	}
}

// accept reports whether the design improved against the captured
// baseline: better worst slack, or equal worst slack and better TNS.
func (o *Optimizer) accept(wsBefore, tnsBefore float64) bool {
	gain := o.MinGain
	if gain < 1e-9 {
		gain = 1e-9
	}
	ws := o.Eng.WorstSlack()
	if ws > wsBefore+gain {
		return true
	}
	return ws >= wsBefore-1e-9 && o.Eng.TNS() > tnsBefore+gain
}

// areaOK reports whether growing total cell area by extra µm² keeps the
// design inside the die's placeable capacity (with a small safety band).
// Growth transforms consult it so timing fixes cannot overfill the chip.
func (o *Optimizer) areaOK(extra float64) bool {
	return o.Im.TotalUsed()+extra <= o.Im.TotalCap()*0.97
}

// placeNear locates a new gate at (x, y), clamped to the die, and
// deposits its area in that bin even when the bin is full: slight
// overfill beats a lost optimization, and legalization resolves it later.
func (o *Optimizer) placeNear(g *netlist.Gate, x, y float64) {
	t := o.NL.Lib.Tech
	x = clamp(x, 0, o.Im.W)
	y = clamp(y, 0, o.Im.H)
	o.NL.MoveGate(g, x, y)
	o.Im.Deposit(x, y, g.Area(t))
}

// removeGate undoes a speculative gate insertion.
func (o *Optimizer) removeGate(g *netlist.Gate) {
	t := o.NL.Lib.Tech
	if g.Placed {
		o.Im.Withdraw(g.X, g.Y, g.Area(t))
	}
	o.NL.RemoveGate(g)
}

// ---- cloning ----

// CloneCritical duplicates critical high-fanout drivers, splitting their
// sinks geometrically; the clone lands at its sink group's centroid (or
// the driver's bin when space allows). Each clone is kept only if the
// timer confirms improvement. Returns accepted clones.
func (o *Optimizer) CloneCritical(maxAccepts int) int {
	accepted, attempts := 0, 0
	for _, n := range o.Eng.CriticalNets(o.Margin) {
		if o.stopped() {
			break
		}
		if maxAccepts > 0 && (accepted >= maxAccepts || attempts >= 4*maxAccepts) {
			break
		}
		attempts++
		if o.cloneNet(n) {
			accepted++
		}
	}
	return accepted
}

func (o *Optimizer) cloneNet(n *netlist.Net) bool {
	d := n.Driver()
	if d == nil || d.Gate.Fixed || d.Gate.IsPad() || d.Gate.IsSequential() {
		return false
	}
	g := d.Gate
	o.sinkScratch = n.Sinks(o.sinkScratch[:0])
	sinks := o.sinkScratch
	if len(sinks) < minCloneFanout {
		return false
	}
	// Split sinks by the axis with larger spread; the clone takes the far
	// group.
	far := o.farGroup(sinks, g.X, g.Y)
	if len(far) == 0 || len(far) == len(sinks) {
		return false
	}

	if !o.areaOK(g.Area(o.NL.Lib.Tech)) {
		return false
	}
	wsBefore := o.Eng.WorstSlack()
	tnsBefore := o.Eng.TNS()

	o.serial++
	clone := o.NL.AddGate(g.Name+"_cl"+itoa(o.serial), g.Cell)
	clone.SizeIdx = g.SizeIdx
	clone.Gain = g.Gain
	// Duplicate input connections.
	for i, p := range g.Pins {
		if p.Dir() == cell.Input && p.Net != nil {
			o.NL.Connect(clone.Pins[i], p.Net)
		}
	}
	cn := o.NL.AddNet(n.Name + "_cl" + itoa(o.serial))
	o.NL.SetNetKind(cn, n.Kind)
	o.NL.Connect(clone.Output(), cn)
	for _, s := range far {
		o.NL.MovePin(s, cn)
	}
	cx, cy := centroid(far)
	o.placeNear(clone, cx, cy)

	if o.accept(wsBefore, tnsBefore) {
		return true
	}
	// Undo: move sinks back, delete clone and its net.
	for _, s := range far {
		o.NL.MovePin(s, n)
	}
	o.removeGate(clone)
	o.NL.RemoveNet(cn)
	return false
}

// farGroup returns the half of the sinks farther from (x, y) along the
// axis of larger spread. The result aliases o.farScratch and is clobbered
// by the next call.
func (o *Optimizer) farGroup(sinks []*netlist.Pin, x, y float64) []*netlist.Pin {
	if len(sinks) < 2 {
		return nil
	}
	minX, maxX := sinks[0].X(), sinks[0].X()
	minY, maxY := sinks[0].Y(), sinks[0].Y()
	for _, s := range sinks[1:] {
		minX = math.Min(minX, s.X())
		maxX = math.Max(maxX, s.X())
		minY = math.Min(minY, s.Y())
		maxY = math.Max(maxY, s.Y())
	}
	horiz := maxX-minX >= maxY-minY
	o.farScratch = append(o.farScratch[:0], sinks...)
	sorted := o.farScratch
	sort.Slice(sorted, func(i, j int) bool {
		var di, dj float64
		if horiz {
			di, dj = math.Abs(sorted[i].X()-x), math.Abs(sorted[j].X()-x)
		} else {
			di, dj = math.Abs(sorted[i].Y()-y), math.Abs(sorted[j].Y()-y)
		}
		if di != dj {
			return di < dj
		}
		return sorted[i].ID < sorted[j].ID
	})
	return sorted[len(sorted)/2:]
}

func centroid(pins []*netlist.Pin) (float64, float64) {
	var x, y float64
	for _, p := range pins {
		x += p.X()
		y += p.Y()
	}
	n := float64(len(pins))
	return x / n, y / n
}

// ---- buffering ----

// BufferCritical inserts a buffer in front of the far sinks of critical
// nets, placed at the far group's centroid. Accept/reject via the timer.
// Returns accepted insertions.
func (o *Optimizer) BufferCritical(maxAccepts int) int {
	accepted, attempts := 0, 0
	for _, n := range o.Eng.CriticalNets(o.Margin) {
		if o.stopped() {
			break
		}
		if maxAccepts > 0 && (accepted >= maxAccepts || attempts >= 4*maxAccepts) {
			break
		}
		attempts++
		if o.bufferNet(n, o.NL.Lib.First(cell.FuncBuf)) {
			accepted++
		}
	}
	return accepted
}

// bufferNet splits n's far sinks behind a new buffer of master bc.
func (o *Optimizer) bufferNet(n *netlist.Net, bc *cell.Cell) bool {
	d := n.Driver()
	if d == nil || n.Kind != netlist.Signal {
		return false
	}
	o.sinkScratch = n.Sinks(o.sinkScratch[:0])
	sinks := o.sinkScratch
	if len(sinks) < 2 {
		return false
	}
	far := o.farGroup(sinks, d.X(), d.Y())
	if len(far) == 0 || len(far) == len(sinks) {
		return false
	}

	if !o.areaOK(bc.Sizes[bc.SizeIndex(4)].Width * o.NL.Lib.Tech.RowHeight) {
		return false
	}
	wsBefore := o.Eng.WorstSlack()
	tnsBefore := o.Eng.TNS()

	o.serial++
	buf := o.NL.AddGate("buf"+itoa(o.serial), bc)
	buf.SizeIdx = bc.SizeIndex(4)
	bn := o.NL.AddNet(n.Name + "_buf" + itoa(o.serial))
	o.NL.Connect(buf.Pin("A"), n)
	o.NL.Connect(buf.Output(), bn)
	for _, s := range far {
		o.NL.MovePin(s, bn)
	}
	cx, cy := centroid(far)
	// Bias the buffer toward the driver so it splits the flight.
	bx := (cx + d.X()) / 2
	by := (cy + d.Y()) / 2
	o.placeNear(buf, bx, by)

	if o.accept(wsBefore, tnsBefore) {
		return true
	}
	for _, s := range far {
		o.NL.MovePin(s, n)
	}
	o.removeGate(buf)
	o.NL.RemoveNet(bn)
	return false
}

// ---- pin swapping ----

// PinSwap reorders the connections of logically-equivalent input pins on
// critical gates so the latest-arriving signal uses the fastest pin
// (§5: applied at status > 50). Returns accepted swaps.
func (o *Optimizer) PinSwap(maxAccepts int) int {
	accepted, attempts := 0, 0
	for _, g := range o.Eng.CriticalGates(o.Margin) {
		if o.stopped() {
			break
		}
		if maxAccepts > 0 && (accepted >= maxAccepts || attempts >= 6*maxAccepts) {
			break
		}
		attempts++
		// Group swappable pins by class.
		groups := map[int][]*netlist.Pin{}
		for _, p := range g.Pins {
			if pt := p.Port(); pt.Dir == cell.Input && pt.SwapClass != 0 && p.Net != nil {
				groups[pt.SwapClass] = append(groups[pt.SwapClass], p)
			}
		}
		for _, pins := range groups {
			if len(pins) < 2 {
				continue
			}
			// Best assignment: latest arrival on the smallest Late pin.
			// Evaluate by full sort and a single trial.
			byLate := append([]*netlist.Pin(nil), pins...)
			sort.Slice(byLate, func(i, j int) bool {
				return byLate[i].Port().Late < byLate[j].Port().Late
			})
			byArr := append([]*netlist.Pin(nil), pins...)
			sort.Slice(byArr, func(i, j int) bool {
				return o.Eng.Arrival(byArr[i]) > o.Eng.Arrival(byArr[j])
			})
			// Desired: byLate[k] carries byArr[k]'s net.
			already := true
			for k := range byLate {
				if byLate[k].Net != byArr[k].Net {
					already = false
					break
				}
			}
			if already {
				continue
			}
			wsBefore := o.Eng.WorstSlack()
			tnsBefore := o.Eng.TNS()
			wanted := make([]*netlist.Net, len(byLate))
			prevNets := make([]*netlist.Net, len(byLate))
			for k := range byLate {
				wanted[k] = byArr[k].Net
				prevNets[k] = byLate[k].Net
			}
			for _, p := range byLate {
				o.NL.Disconnect(p)
			}
			for k, p := range byLate {
				o.NL.Connect(p, wanted[k])
			}
			if o.accept(wsBefore, tnsBefore) {
				accepted++
			} else {
				for _, p := range byLate {
					o.NL.Disconnect(p)
				}
				for k, p := range byLate {
					o.NL.Connect(p, prevNets[k])
				}
			}
		}
	}
	return accepted
}

// ---- remapping ----

// Remap applies function-preserving local restructurings on the critical
// region — inverter-pair collapsing, redundant-buffer removal, and
// AND2/OR2 decomposition into NAND2/NOR2 + INV — keeping each change only
// when the analyzer approves. Returns accepted remaps.
func (o *Optimizer) Remap(maxAccepts int) int {
	accepted := 0
	for _, g := range o.Eng.CriticalGates(o.Margin) {
		if o.stopped() {
			break
		}
		if maxAccepts > 0 && accepted >= maxAccepts {
			break
		}
		if g.Removed {
			continue
		}
		switch g.Cell.Function {
		case cell.FuncBuf:
			if o.collapseBuffer(g) {
				accepted++
			}
		case cell.FuncInv:
			if o.collapseInvPair(g) {
				accepted++
			}
		case cell.FuncAnd2:
			if o.decompose(g, cell.FuncNand2) {
				accepted++
			}
		case cell.FuncOr2:
			if o.decompose(g, cell.FuncNor2) {
				accepted++
			}
		}
	}
	return accepted
}

// collapseBuffer removes a buffer by moving its sinks onto its input net.
func (o *Optimizer) collapseBuffer(g *netlist.Gate) bool {
	in := g.Pin("A").Net
	out := g.Output().Net
	if in == nil || out == nil || in.Kind != netlist.Signal {
		return false
	}
	wsBefore := o.Eng.WorstSlack()
	tnsBefore := o.Eng.TNS()
	o.sinkScratch = out.Sinks(o.sinkScratch[:0])
	sinks := o.sinkScratch
	for _, s := range sinks {
		o.NL.MovePin(s, in)
	}
	if o.accept(wsBefore, tnsBefore) {
		o.removeGate(g)
		o.NL.RemoveNet(out)
		return true
	}
	for _, s := range sinks {
		o.NL.MovePin(s, out)
	}
	return false
}

// collapseInvPair removes INV→INV chains: if g is an inverter whose only
// sink is another inverter, both are removed and the outer sinks rewire
// to g's input net.
func (o *Optimizer) collapseInvPair(g *netlist.Gate) bool {
	in := g.Pin("A").Net
	mid := g.Output().Net
	if in == nil || mid == nil || mid.NumPins() != 2 {
		return false
	}
	var g2 *netlist.Gate
	for _, p := range mid.Pins() {
		if p.Gate != g && p.Dir() == cell.Input && p.Gate.Cell.Function == cell.FuncInv {
			g2 = p.Gate
		}
	}
	if g2 == nil || g2.Fixed {
		return false
	}
	out := g2.Output().Net
	if out == nil || out.Kind != netlist.Signal || in.Kind != netlist.Signal {
		return false
	}
	wsBefore := o.Eng.WorstSlack()
	tnsBefore := o.Eng.TNS()
	o.sinkScratch = out.Sinks(o.sinkScratch[:0])
	sinks := o.sinkScratch
	for _, s := range sinks {
		o.NL.MovePin(s, in)
	}
	// Slack must not degrade (area always shrinks) — accept on non-degrade.
	ws := o.Eng.WorstSlack()
	if ws >= wsBefore-1e-9 && o.Eng.TNS() >= tnsBefore-1e-9 {
		o.removeGate(g2)
		o.NL.RemoveNet(out)
		o.removeGate(g)
		o.NL.RemoveNet(mid)
		return true
	}
	for _, s := range sinks {
		o.NL.MovePin(s, out)
	}
	return false
}

// decompose replaces an AND2/OR2 with the inverting master plus an INV,
// letting the two stages be placed and sized independently.
func (o *Optimizer) decompose(g *netlist.Gate, invertingFunc cell.Func) bool {
	nc := o.NL.Lib.First(invertingFunc)
	ic := o.NL.Lib.First(cell.FuncInv)
	if nc == nil || ic == nil || g.Output().Net == nil {
		return false
	}
	wsBefore := o.Eng.WorstSlack()
	tnsBefore := o.Eng.TNS()

	o.serial++
	inv := o.NL.AddGate(g.Name+"_i"+itoa(o.serial), ic)
	inv.SizeIdx = g.SizeIdx
	inv.Gain = g.Gain
	mid := o.NL.AddNet(g.Name + "_m" + itoa(o.serial))
	out := g.Output().Net
	o.NL.Disconnect(g.Output())
	// Swap the master: AND2→NAND2 / OR2→NOR2 share the port shape.
	oldCell, oldSi := g.Cell, g.SizeIdx
	o.NL.ReplaceCell(g, nc, oldSi)
	o.NL.Connect(g.Output(), mid)
	o.NL.Connect(inv.Pin("A"), mid)
	o.NL.Connect(inv.Output(), out)
	o.placeNear(inv, g.X, g.Y)

	if o.accept(wsBefore, tnsBefore) {
		return true
	}
	o.NL.Disconnect(g.Output())
	o.removeGate(inv)
	o.NL.RemoveNet(mid)
	o.NL.ReplaceCell(g, oldCell, oldSi)
	o.NL.Connect(g.Output(), out)
	return false
}

// ---- electrical correction ----

// ElectricalCorrection repairs max-capacitance violations. Per the §1
// example, the choice between upsizing the driver and inserting a buffer
// is driven by how much space is available in the driver's bin: upsizing
// needs room in place, buffering can put the new cell at the load
// centroid. Returns the number of repairs.
func (o *Optimizer) ElectricalCorrection(calc interface{ Load(*netlist.Net) float64 }) int {
	fixed := 0
	t := o.NL.Lib.Tech
	var nets []*netlist.Net
	o.NL.Nets(func(n *netlist.Net) {
		if n.Kind == netlist.Signal {
			nets = append(nets, n)
		}
	})
	for _, n := range nets {
		if o.stopped() {
			break
		}
		d := n.Driver()
		if d == nil || d.Gate.IsPad() || d.Gate.SizeIdx < 0 {
			continue
		}
		g := d.Gate
		repaired := false
		for iter := 0; iter < 8; iter++ {
			limit := maxCapPerX * g.DriveX()
			load := calc.Load(n)
			if load <= limit {
				break
			}
			// Option 1: upsize in place if the bin has room to grow.
			if g.SizeIdx+1 < len(g.Cell.Sizes) {
				grow := g.Cell.Sizes[g.SizeIdx+1].Width*t.RowHeight - g.Area(t)
				if o.Im.BinAt(g.X, g.Y).Free() >= grow {
					o.Im.Deposit(g.X, g.Y, grow)
					o.NL.SetSize(g, g.SizeIdx+1)
					repaired = true
					continue
				}
			}
			// Option 2: peel the far half of the sinks behind a buffer.
			if !o.bufferNetUnconditional(n) {
				break
			}
			repaired = true
		}
		if repaired {
			fixed++
		}
	}
	return fixed
}

// bufferNetUnconditional inserts a load-splitting buffer without the
// timing accept gate (electrical legality trumps). The buffer's drive is
// sized to legally carry the peeled load, no larger.
func (o *Optimizer) bufferNetUnconditional(n *netlist.Net) bool {
	d := n.Driver()
	o.sinkScratch = n.Sinks(o.sinkScratch[:0])
	sinks := o.sinkScratch
	if d == nil || len(sinks) < 2 {
		return false
	}
	far := o.farGroup(sinks, d.X(), d.Y())
	if len(far) == 0 || len(far) == len(sinks) {
		return false
	}
	bc := o.NL.Lib.First(cell.FuncBuf)
	var peeled float64
	for _, s := range far {
		peeled += s.Cap()
	}
	si := bc.SizeIndex(peeled / maxCapPerX)
	if !o.areaOK(bc.Sizes[si].Width * o.NL.Lib.Tech.RowHeight) {
		return false
	}
	o.serial++
	buf := o.NL.AddGate("ebuf"+itoa(o.serial), bc)
	buf.SizeIdx = si
	bn := o.NL.AddNet(n.Name + "_eb" + itoa(o.serial))
	o.NL.Connect(buf.Pin("A"), n)
	o.NL.Connect(buf.Output(), bn)
	for _, s := range far {
		o.NL.MovePin(s, bn)
	}
	cx, cy := centroid(far)
	o.placeNear(buf, cx, cy)
	return true
}

// stopped reports whether the Stop hook asks the pass to end early.
func (o *Optimizer) stopped() bool {
	return o.Stop != nil && o.Stop() != nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func itoa(v int) string { return strconv.Itoa(v) }
