// Package gen generates synthetic designs that stand in for the paper's
// proprietary testcases (five partitions of a mainframe processor). The
// generator builds leveled random logic with Rent-style locality knobs,
// pipeline registers, a pre-built (unoptimized) clock-buffer tree, a
// stitched scan chain, and peripheral IO pads — every structural feature
// the TPS transforms of §4 operate on.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"tps/internal/cell"
	"tps/internal/netlist"
)

// Params configures Generate.
type Params struct {
	Name string
	// NumGates is the approximate number of combinational gates.
	NumGates int
	// RegFraction is the register count as a fraction of NumGates.
	RegFraction float64
	// Levels is the combinational depth between register stages.
	Levels int
	// NumPI / NumPO are primary IO counts (pads).
	NumPI, NumPO int
	// LocalBias is the probability that a gate input comes from the
	// immediately preceding level (higher → more local, Rent-like
	// connectivity). The remainder is drawn from a geometric tail over
	// earlier levels.
	LocalBias float64
	// HubFraction of source selections use preferential attachment,
	// creating the high-fanout nets buffering/cloning exist for.
	HubFraction float64
	// SpareRegFraction of registers have scan-only outputs, producing the
	// pure scan nets §4.5 zero-weights.
	SpareRegFraction float64
	// RegsPerClockBuffer sets the initial (pre-optimization) clock tree
	// arity.
	RegsPerClockBuffer int
	// Utilization is the chip fill target used to size the die.
	Utilization float64
	// SizeHeadroom scales the die area above the initial (X1, sizeless)
	// cell area to leave room for gain-based discretization, speed
	// sizing, and buffer/clone insertion. Default 2.0.
	SizeHeadroom float64
	// Period overrides the clock period in ps (0 → derived from depth).
	Period float64
	// PeriodScale tightens (<1) or relaxes (>1) the derived period.
	PeriodScale float64
	Seed        int64
}

// Des returns the generator configuration for the Table 1 design with the
// given index (1–5), scaled by scale (1.0 = paper-sized; tests use less).
// Cell counts are chosen so the *placeable instance* totals land near the
// paper's icells column (18622, 25927, 39734, 21584, 14780 for SPR runs).
// Any other index is an error.
func Des(i int, scale float64) (Params, error) {
	type row struct {
		gates  int
		levels int
		reg    float64
	}
	rows := map[int]row{
		1: {15200, 14, 0.16},
		2: {21200, 16, 0.15},
		3: {32500, 15, 0.14},
		4: {17600, 18, 0.15},
		5: {12100, 12, 0.16},
	}
	r, ok := rows[i]
	if !ok {
		return Params{}, fmt.Errorf("gen: no Table 1 design Des%d (want 1–5)", i)
	}
	ng := int(float64(r.gates) * scale)
	if ng < 60 {
		ng = 60
	}
	return Params{
		Name:               fmt.Sprintf("Des%d", i),
		NumGates:           ng,
		RegFraction:        r.reg,
		Levels:             r.levels,
		NumPI:              max(8, ng/160),
		NumPO:              max(8, ng/200),
		LocalBias:          0.62,
		HubFraction:        0.06,
		SpareRegFraction:   0.05,
		RegsPerClockBuffer: 36,
		Utilization:        0.65,
		PeriodScale:        0.92,
		Seed:               int64(1000 + i),
	}, nil
}

// Design is a generated netlist plus its physical frame and constraint.
type Design struct {
	NL     *netlist.Netlist
	Period float64 // ps
	ChipW  float64 // µm
	ChipH  float64 // µm
}

// Generate builds a design from p over lib.
func Generate(lib *cell.Library, p Params) *Design {
	fillDefaults(&p)
	rng := rand.New(rand.NewSource(p.Seed))
	nl := netlist.New(p.Name, lib)

	numRegs := int(float64(p.NumGates) * p.RegFraction)
	if numRegs < 1 {
		numRegs = 1
	}

	// --- sources: input pads and registers ---
	padCell := lib.First(cell.FuncPad)
	dffCell := lib.First(cell.FuncDFF)
	clkbufCell := lib.First(cell.FuncClkBuf)

	var piNets []*netlist.Net
	var piPads []*netlist.Gate
	for i := 0; i < p.NumPI; i++ {
		pad := nl.AddGate("pi"+strconv.Itoa(i), padCell)
		pad.SizeIdx = 0
		pad.Fixed = true
		n := nl.AddNet("pi" + strconv.Itoa(i) + "_n")
		nl.Connect(pad.Pin("O"), n)
		piNets = append(piNets, n)
		piPads = append(piPads, pad)
	}

	var regs []*netlist.Gate
	var regQNets []*netlist.Net
	for i := 0; i < numRegs; i++ {
		r := nl.AddGate("reg"+strconv.Itoa(i), dffCell)
		r.SizeIdx = 0
		n := nl.AddNet("reg" + strconv.Itoa(i) + "_q")
		nl.Connect(r.Pin("Q"), n)
		regs = append(regs, r)
		regQNets = append(regQNets, n)
	}
	numSpare := int(float64(numRegs) * p.SpareRegFraction)

	// --- combinational levels ---
	// sources[l] holds driver nets whose output level is l; level 0 are
	// PIs and register Qs (spare register Qs excluded from data use).
	sources := make([][]*netlist.Net, p.Levels+1)
	sources[0] = append(sources[0], piNets...)
	for i, n := range regQNets {
		if i >= numRegs-numSpare {
			continue // spare: scan-only
		}
		sources[0] = append(sources[0], n)
	}
	// unused[l] queues nets at level l not yet consumed by any sink, so
	// every driver ends up used.
	unused := make([][]*netlist.Net, p.Levels+1)
	unused[0] = append(unused[0], sources[0]...)

	// hubs get preferential re-selection to create high-fanout nets.
	var hubs []*netlist.Net

	combFuncs := []struct {
		f cell.Func
		w int
	}{
		{cell.FuncNand2, 26}, {cell.FuncInv, 14}, {cell.FuncNor2, 10},
		{cell.FuncNand3, 9}, {cell.FuncAoi21, 8}, {cell.FuncOai21, 6},
		{cell.FuncXor2, 6}, {cell.FuncAnd2, 5}, {cell.FuncOr2, 5},
		{cell.FuncMux2, 4}, {cell.FuncNand4, 3}, {cell.FuncXnor2, 2},
		{cell.FuncBuf, 2},
	}
	totW := 0
	for _, cf := range combFuncs {
		totW += cf.w
	}
	pickFunc := func() *cell.Cell {
		r := rng.Intn(totW)
		for _, cf := range combFuncs {
			r -= cf.w
			if r < 0 {
				return lib.First(cf.f)
			}
		}
		return lib.First(cell.FuncNand2)
	}

	pickSource := func(level int) *netlist.Net {
		// Drain unconsumed outputs of the previous level first.
		if q := unused[level-1]; len(q) > 0 {
			n := q[len(q)-1]
			unused[level-1] = q[:len(q)-1]
			return n
		}
		if len(hubs) > 0 && rng.Float64() < p.HubFraction {
			return hubs[rng.Intn(len(hubs))]
		}
		l := level - 1
		if rng.Float64() >= p.LocalBias {
			// Geometric tail over earlier levels.
			for l > 0 && rng.Float64() < 0.5 {
				l--
			}
		}
		for l >= 0 {
			if len(sources[l]) > 0 {
				return sources[l][rng.Intn(len(sources[l]))]
			}
			l--
		}
		return piNets[rng.Intn(len(piNets))]
	}

	gatesPerLevel := p.NumGates / p.Levels
	gid := 0
	for lvl := 1; lvl <= p.Levels; lvl++ {
		count := gatesPerLevel
		if lvl == p.Levels {
			count = p.NumGates - gatesPerLevel*(p.Levels-1)
		}
		for i := 0; i < count; i++ {
			c := pickFunc()
			g := nl.AddGate("u"+strconv.Itoa(gid), c)
			gid++
			for _, pin := range g.Pins {
				if pin.Dir() != cell.Input {
					continue
				}
				nl.Connect(pin, pickSource(lvl))
			}
			n := nl.AddNet("u" + strconv.Itoa(gid-1) + "_z")
			nl.Connect(g.Output(), n)
			sources[lvl] = append(sources[lvl], n)
			unused[lvl] = append(unused[lvl], n)
			if rng.Float64() < 0.02 {
				hubs = append(hubs, n)
			}
		}
	}

	// --- register D inputs: close the pipeline loop ---
	lastLvl := p.Levels
	pickSink := func() *netlist.Net {
		if q := unused[lastLvl]; len(q) > 0 {
			n := q[len(q)-1]
			unused[lastLvl] = q[:len(q)-1]
			return n
		}
		for l := lastLvl; l >= 0; l-- {
			if len(sources[l]) > 0 {
				return sources[l][rng.Intn(len(sources[l]))]
			}
		}
		return piNets[0]
	}
	for _, r := range regs {
		nl.Connect(r.Pin("D"), pickSink())
	}

	// --- primary outputs ---
	var poPads []*netlist.Gate
	for i := 0; i < p.NumPO; i++ {
		pad := nl.AddGate("po"+strconv.Itoa(i), padCell)
		pad.SizeIdx = 0
		pad.Fixed = true
		nl.Connect(pad.Pin("I"), pickSink())
		poPads = append(poPads, pad)
	}
	// Drain any still-unused outputs into extra POs so no driver dangles.
	for l := 0; l <= p.Levels; l++ {
		for _, n := range unused[l] {
			if n.NumPins() > 1 {
				continue
			}
			pad := nl.AddGate("po_x"+strconv.Itoa(len(poPads)), padCell)
			pad.SizeIdx = 0
			pad.Fixed = true
			nl.Connect(pad.Pin("I"), n)
			poPads = append(poPads, pad)
		}
	}

	// --- clock tree: pad → root net → buffers → leaf nets → CK pins ---
	clkPad := nl.AddGate("clk_pad", padCell)
	clkPad.SizeIdx = 0
	clkPad.Fixed = true
	clkRoot := nl.AddNet("clk_root")
	nl.Connect(clkPad.Pin("O"), clkRoot)
	numBufs := (numRegs + p.RegsPerClockBuffer - 1) / p.RegsPerClockBuffer
	for b := 0; b < numBufs; b++ {
		cb := nl.AddGate("clkbuf"+strconv.Itoa(b), clkbufCell)
		cb.SizeIdx = 1
		nl.Connect(cb.Pin("A"), clkRoot)
		leaf := nl.AddNet("clk_leaf" + strconv.Itoa(b))
		nl.Connect(cb.Output(), leaf)
		for i := b; i < numRegs; i += numBufs {
			nl.Connect(regs[i].ClockPin(), leaf)
		}
	}

	// --- scan chain: scan-in pad → SI → Q → SI … → scan-out pad ---
	scanIn := nl.AddGate("scan_in", padCell)
	scanIn.SizeIdx = 0
	scanIn.Fixed = true
	siNet := nl.AddNet("scan_in_n")
	nl.Connect(scanIn.Pin("O"), siNet)
	nl.Connect(regs[0].Pin("SI"), siNet)
	for i := 1; i < numRegs; i++ {
		nl.Connect(regs[i].Pin("SI"), regQNets[i-1])
	}
	scanOut := nl.AddGate("scan_out", padCell)
	scanOut.SizeIdx = 0
	scanOut.Fixed = true
	nl.Connect(scanOut.Pin("I"), regQNets[numRegs-1])

	nl.ClassifyKinds()

	// --- die and pad placement ---
	area := nl.TotalCellArea() * p.SizeHeadroom / p.Utilization
	side := math.Sqrt(area)
	// Snap to a whole number of rows.
	rows := math.Ceil(side / lib.Tech.RowHeight)
	chipH := rows * lib.Tech.RowHeight
	chipW := side
	placePadsOnPerimeter(nl, chipW, chipH)

	period := p.Period
	if period == 0 {
		// Derived: gain-based stage delay × depth × scale, plus register
		// overhead; deliberately aggressive so both flows end negative,
		// as in Table 1.
		stage := (2.2 + 1.6*4.0) * lib.Tech.Tau
		clk2q := (6.0 + 1.5*4.0) * lib.Tech.Tau
		period = (float64(p.Levels)*stage + clk2q) * p.PeriodScale
	}

	return &Design{NL: nl, Period: period, ChipW: chipW, ChipH: chipH}
}

func fillDefaults(p *Params) {
	if p.NumGates <= 0 {
		p.NumGates = 1000
	}
	if p.Levels <= 0 {
		p.Levels = 10
	}
	if p.RegFraction <= 0 {
		p.RegFraction = 0.15
	}
	if p.NumPI <= 0 {
		p.NumPI = 16
	}
	if p.NumPO <= 0 {
		p.NumPO = 16
	}
	if p.LocalBias <= 0 {
		p.LocalBias = 0.6
	}
	if p.RegsPerClockBuffer <= 0 {
		p.RegsPerClockBuffer = 36
	}
	if p.Utilization <= 0 {
		p.Utilization = 0.65
	}
	if p.PeriodScale <= 0 {
		p.PeriodScale = 0.92
	}
	if p.SpareRegFraction < 0 {
		p.SpareRegFraction = 0
	}
	if p.SizeHeadroom <= 0 {
		p.SizeHeadroom = 2.0
	}
	if p.Name == "" {
		p.Name = "design"
	}
}

// placePadsOnPerimeter distributes fixed pads evenly around the die edge.
func placePadsOnPerimeter(nl *netlist.Netlist, w, h float64) {
	var pads []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if g.IsPad() {
			pads = append(pads, g)
		}
	})
	n := len(pads)
	if n == 0 {
		return
	}
	perim := 2 * (w + h)
	for i, g := range pads {
		d := perim * float64(i) / float64(n)
		var x, y float64
		switch {
		case d < w:
			x, y = d, 0
		case d < w+h:
			x, y = w, d-w
		case d < 2*w+h:
			x, y = w-(d-w-h), h
		default:
			x, y = 0, h-(d-2*w-h)
		}
		nl.MoveGate(g, x, y)
	}
}
