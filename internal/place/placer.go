// Package place implements the placement transforms of §4.1: the
// Partitioner transform (recursive min-cut bisection over the bin image,
// with native terminal projection), the Reflow transform (merged sliding
// windows that let logic escape early partitioning decisions), a Tetris
// row legalizer, and the DetailedPlaceOpt sliding-window swap/permute
// optimizer. Placement progress is the image's status number 0–100 (§5).
package place

import (
	"math"
	"sort"
	"sync"

	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/par"
	"tps/internal/partition"
	"tps/internal/steiner"
)

const (
	// maxNetPins skips nets larger than this during partitioning (huge
	// nets carry no cut signal and cost quadratic time).
	maxNetPins = 128
	// tolerance is the per-cut area balance tolerance.
	tolerance = 0.12
)

// Placer drives the min-cut placement of a netlist over a bin image. It is
// a set of transforms, not a monolithic placer: Partition and Reflow may
// be interleaved with any synthesis transform, which is the core of the
// TPS methodology.
type Placer struct {
	NL   *netlist.Netlist
	Im   *image.Image
	Seed int64
	// Workers bounds the transform execution parallelism (quadrisection
	// cells, partitioner multi-starts, reflow lanes). Results are
	// bit-identical at any value; <=1 runs serially.
	Workers int

	initialized bool

	// fmPool recycles the partitioner's per-pass FM scratch across the
	// whole quadrisection tree: forked cells and successive refinement
	// levels draw from one pool instead of re-allocating gain/tie/bucket
	// arrays per pass. fmStats accumulates gain-structure traffic across
	// every Bipartition the placer issues (atomic adds: cells fork).
	fmPool  *partition.ScratchPool
	fmStats partition.Stats
	// bisectPool recycles bisect's hypergraph-building scratch.
	bisectPool sync.Pool
}

// FMStats returns the accumulated FM gain-structure counters of every
// bisection this placer has run. The counts are deterministic functions
// of the design and seed — identical at any Workers value.
func (p *Placer) FMStats() partition.Stats { return p.fmStats.Snapshot() }

func (p *Placer) workers() int {
	if p.Workers < 1 {
		return 1
	}
	return p.Workers
}

// New creates a placer. The image must be at level 0 (fresh).
func New(nl *netlist.Netlist, im *image.Image, seed int64) *Placer {
	p := &Placer{NL: nl, Im: im, Seed: seed, fmPool: partition.NewScratchPool()}
	p.bisectPool.New = func() any { return new(bisectScratch) }
	return p
}

// Status returns the placement progress number (0–100).
func (p *Placer) Status() int { return p.Im.Status() }

// Init places every movable gate at the chip center (the single level-0
// window) and deposits areas. Called implicitly by Partition.
func (p *Placer) Init() {
	if p.initialized {
		return
	}
	cx, cy := p.Im.W/2, p.Im.H/2
	p.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			p.NL.MoveGate(g, cx, cy)
		}
	})
	p.SyncImage()
	p.initialized = true
}

// SyncImage re-deposits gate areas into the current bin grid. The netlist
// is the source of truth; the image is the abstraction.
func (p *Placer) SyncImage() {
	t := p.NL.Lib.Tech
	p.Im.ClearUsage()
	p.NL.Gates(func(g *netlist.Gate) {
		if g.IsPad() {
			return
		}
		p.Im.Deposit(g.X, g.Y, g.Area(t))
	})
}

// Partition is the Partitioner transform: it advances placement until the
// status number reaches at least target (clamped to 100), performing one
// quadrisection cut per image refinement level. Returns the new status.
func (p *Placer) Partition(target int) int {
	p.Init()
	for p.Im.Status() < target {
		if !p.cut() {
			break
		}
	}
	p.SyncImage()
	return p.Im.Status()
}

// cut refines the image one level and redistributes every cell's gates
// into the four child bins by two min-cut bisections (x then y), with
// terminal projection against the rest of the chip. Reports false at max
// refinement.
func (p *Placer) cut() bool {
	oldNX, oldNY := p.Im.NX, p.Im.NY
	oldBW, oldBH := p.Im.BinW(), p.Im.BinH()
	if !p.Im.Subdivide() {
		return false
	}

	// Group movable gates by old cell.
	groups := make([][]*netlist.Gate, oldNX*oldNY)
	p.NL.Gates(func(g *netlist.Gate) {
		if g.Fixed {
			return
		}
		ix := clampInt(int(g.X/oldBW), 0, oldNX-1)
		iy := clampInt(int(g.Y/oldBH), 0, oldNY-1)
		groups[iy*oldNX+ix] = append(groups[iy*oldNX+ix], g)
	})

	var work []int
	for ci, gates := range groups {
		if len(gates) > 0 {
			work = append(work, ci)
		}
	}
	// Fork-join over spatially independent cells: each worker computes its
	// cell's moves against the frozen pre-cut positions (no MoveGate during
	// the fan-out), then the moves commit serially in cell order. Freezing
	// makes every cell's cut decisions independent of execution order, so
	// results are bit-identical at any worker count. When a single cell
	// holds all the work (the first cuts), parallelism is pushed down into
	// the partitioner's multi-starts instead.
	w := p.workers()
	innerW := 1
	if len(work) == 1 {
		innerW = w
	}
	moves := make([][]gateMove, len(work))
	par.ForEach(w, len(work), func(k int) {
		ci := work[k]
		ix, iy := ci%oldNX, ci/oldNX
		x0, y0 := float64(ix)*oldBW, float64(iy)*oldBH
		moves[k] = p.quadrisect(groups[ci], x0, y0, oldBW, oldBH, int64(ci), innerW)
	})
	for _, ms := range moves {
		for _, m := range ms {
			p.NL.MoveGate(m.g, m.x, m.y)
		}
	}
	return true
}

// gateMove is a deferred MoveGate: transforms compute moves against frozen
// positions during a parallel fan-out and commit them serially afterwards.
type gateMove struct {
	g    *netlist.Gate
	x, y float64
}

// quadrisect splits one window's gates into its four children and returns
// the resulting moves without applying them. The x-split reads only x
// coordinates and the y-splits read only y coordinates, so deferring the
// commits changes nothing within the window; across windows it pins every
// cut decision to the frozen pre-cut state, which is what lets sibling
// windows evaluate concurrently.
func (p *Placer) quadrisect(gates []*netlist.Gate, x0, y0, w, h float64, salt int64, workers int) []gateMove {
	xm := x0 + w/2
	ym := y0 + h/2
	lvl := int64(p.Im.Level)

	// Stage 1: x-split. Capacity-proportional target from the child bins.
	capL := p.halfCap(x0, y0, w/2, h)
	capR := p.halfCap(xm, y0, w/2, h)
	left, right := p.bisect(gates, axisX, xm, frac(capL, capR), tolerance, par.DeriveSeed(p.Seed, salt, lvl, 0), workers)
	newX := [2]float64{x0 + w/4, xm + w/4}

	// Stage 2: y-split of each half. The halves are independent (each reads
	// only y coordinates, which stage 1 never assigns), so they fork too.
	var halfMoves [2][]gateMove
	halves := [2][]*netlist.Gate{left, right}
	par.ForEach(min(workers, 2), 2, func(hi int) {
		half := halves[hi]
		if len(half) == 0 {
			return
		}
		hx := x0
		if hi == 1 {
			hx = xm
		}
		capB := p.halfCap(hx, y0, w/2, h/2)
		capT := p.halfCap(hx, ym, w/2, h/2)
		hw := workers / 2
		if hw < 1 {
			hw = 1
		}
		bot, top := p.bisect(half, axisY, ym, frac(capB, capT), tolerance, par.DeriveSeed(p.Seed, salt, lvl, int64(hi)+1), hw)
		ms := make([]gateMove, 0, len(half))
		for _, g := range bot {
			ms = append(ms, gateMove{g, newX[hi], y0 + h/4})
		}
		for _, g := range top {
			ms = append(ms, gateMove{g, newX[hi], ym + h/4})
		}
		halfMoves[hi] = ms
	})
	return append(halfMoves[0], halfMoves[1]...)
}

// halfCap sums child-bin capacity over a rectangle (current image level).
func (p *Placer) halfCap(x0, y0, w, h float64) float64 {
	bw, bh := p.Im.BinW(), p.Im.BinH()
	i0 := clampInt(int(x0/bw+0.5), 0, p.Im.NX-1)
	j0 := clampInt(int(y0/bh+0.5), 0, p.Im.NY-1)
	i1 := clampInt(int((x0+w)/bw+0.5)-1, 0, p.Im.NX-1)
	j1 := clampInt(int((y0+h)/bh+0.5)-1, 0, p.Im.NY-1)
	var s float64
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			s += p.Im.At(i, j).AreaCap
		}
	}
	return s
}

type axis int

const (
	axisX axis = iota
	axisY
)

// bisect partitions gates into (side0, side1) against the cut coordinate,
// projecting every external pin of every touched net onto a fixed terminal
// vertex on its geometric side. This is the paper's terminal projection:
// the whole netlist and all placement locations are visible natively.
func (p *Placer) bisect(gates []*netlist.Gate, ax axis, cut float64, targetFrac, tol float64, seed int64, workers int) (side0, side1 []*netlist.Gate) {
	if len(gates) == 1 {
		// Trivial: place by capacity-weighted coin — deterministic side
		// with more room; cut cost is equal either way only if no nets,
		// so project by the gate's net pull.
		g := gates[0]
		if p.pullSide(g, ax, cut) == 0 {
			return gates, nil
		}
		return nil, gates
	}

	sc := p.bisectPool.Get().(*bisectScratch)
	defer p.bisectPool.Put(sc)
	ep := sc.begin(p.NL.GateCap(), p.NL.NetCap())

	nv := len(gates)
	sc.area = grown(sc.area, nv+2)
	sc.fixed = grown(sc.fixed, nv+2)
	t := p.NL.Lib.Tech
	for i, g := range gates {
		a := g.Area(t)
		if a <= 0 {
			a = 1e-3 // zero-footprint gates (clock-schedule trick) still count
		}
		sc.area[i] = a
		sc.fixed[i] = -1
		sc.vert[g.ID] = stampedVert{ep, int32(i)}
	}
	term := [2]int32{int32(nv), int32(nv + 1)}
	// Terminal areas are zero: they must not consume balance budget.
	sc.area[term[0]], sc.area[term[1]] = 0, 0
	sc.fixed[term[0]], sc.fixed[term[1]] = 0, 1

	// Pin lists land in one slab; the net slices are cut from it once it
	// stops growing.
	sc.slab, sc.off, sc.weight = sc.slab[:0], append(sc.off[:0], 0), sc.weight[:0]
	for _, g := range gates {
		for _, pin := range g.Pins {
			n := pin.Net
			if n == nil || sc.netEp[n.ID] == ep || n.Weight <= 0 {
				continue
			}
			sc.netEp[n.ID] = ep
			pins := n.Pins()
			if len(pins) > maxNetPins {
				continue
			}
			start := len(sc.slab)
			hasTerm := [2]bool{}
			for _, q := range pins {
				if sv := sc.vert[q.Gate.ID]; sv.ep == ep {
					sc.slab = append(sc.slab, sv.v)
					continue
				}
				side := 0
				if coord(q.X(), q.Y(), ax) > cut {
					side = 1
				}
				if !hasTerm[side] {
					hasTerm[side] = true
					sc.slab = append(sc.slab, term[side])
				}
			}
			if len(sc.slab)-start < 2 {
				sc.slab = sc.slab[:start]
				continue
			}
			sc.off = append(sc.off, int32(len(sc.slab)))
			sc.weight = append(sc.weight, n.Weight)
		}
	}
	sc.nets = grown(sc.nets, len(sc.weight))
	for i := range sc.nets {
		sc.nets[i] = sc.slab[sc.off[i]:sc.off[i+1]]
	}
	h := &partition.Hypergraph{NumV: nv + 2, Area: sc.area, Fixed: sc.fixed, Nets: sc.nets, Weight: sc.weight}

	opt := partition.DefaultOptions(seed)
	opt.TargetFrac = targetFrac
	opt.Tolerance = tol
	opt.Workers = workers
	opt.Stats = &p.fmStats
	opt.Scratch = p.fmPool
	res := partition.Bipartition(h, opt)
	n0 := 0
	for _, s := range res.Part[:nv] {
		if s == 0 {
			n0++
		}
	}
	out := make([]*netlist.Gate, nv)
	side0, side1 = out[:0:n0], out[n0:n0:nv]
	for i, g := range gates {
		if res.Part[i] == 0 {
			side0 = append(side0, g)
		} else {
			side1 = append(side1, g)
		}
	}
	return side0, side1
}

// bisectScratch is the reusable working state of one bisect call: the
// gate-ID → vertex and net-ID → taken lookups as epoch-stamped slices
// (an entry counts only when it carries the call's epoch, so nothing is
// cleared between calls), and the hypergraph's areas, fixed flags, and
// net pin lists in one slab. Bisections run concurrently, so each call
// draws its own scratch from Placer.bisectPool; Bipartition keeps no
// reference to its input, so the scratch is free again on return.
type bisectScratch struct {
	ep     uint32
	vert   []stampedVert // by gate ID
	netEp  []uint32      // by net ID: epoch of the call that took the net
	area   []float64
	fixed  []int8
	slab   []int32
	off    []int32 // net i's pins are slab[off[i]:off[i+1]]
	nets   [][]int32
	weight []float64
}

// stampedVert maps a gate to its bisection vertex v, valid in epoch ep.
type stampedVert struct {
	ep uint32
	v  int32
}

// begin starts a bisect call: it advances the epoch and sizes the ID
// lookups to the netlist's current ID bounds. Fresh or regrown lookups
// are zero, which no live epoch (>= 1) matches.
func (sc *bisectScratch) begin(gateCap, netCap int) uint32 {
	sc.ep++
	if sc.ep == 0 { // wrapped: every old stamp could match again
		clear(sc.vert)
		clear(sc.netEp)
		sc.ep = 1
	}
	if len(sc.vert) < gateCap {
		sc.vert = make([]stampedVert, gateCap)
	}
	if len(sc.netEp) < netCap {
		sc.netEp = make([]uint32, netCap)
	}
	return sc.ep
}

// grown returns s resized to n elements, reallocating only on capacity
// growth. Contents are unspecified; callers overwrite what they read.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pullSide returns the side (0/1) whose connected-pin centroid is closer
// for a single gate. It sees the same nets the bisection hypergraph does
// (positive weight, at most maxNetPins pins): huge and zero-weight nets
// carry no cut signal, and excluding them here keeps every partitioning
// decision — and therefore the reflow lane conflict graph — a function of
// scored nets only.
func (p *Placer) pullSide(g *netlist.Gate, ax axis, cut float64) int {
	var sum float64
	var n int
	for _, pin := range g.Pins {
		if pin.Net == nil || pin.Net.Weight <= 0 {
			continue
		}
		pins := pin.Net.Pins()
		if len(pins) > maxNetPins {
			continue
		}
		for _, q := range pins {
			if q.Gate == g {
				continue
			}
			sum += coord(q.X(), q.Y(), ax)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	if sum/float64(n) > cut {
		return 1
	}
	return 0
}

func coord(x, y float64, ax axis) float64 {
	if ax == axisX {
		return x
	}
	return y
}

func frac(a, b float64) float64 {
	s := a + b
	if s <= 0 {
		return 0.5
	}
	f := a / s
	if f < 0.05 {
		f = 0.05
	}
	if f > 0.95 {
		f = 0.95
	}
	return f
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Reflow is the Reflow transform of §4.1: sliding windows, each the merge
// of two adjacent cells, are re-partitioned so logic can flow back across
// earlier cut lines. One call performs a horizontal sweep then a vertical
// sweep at the current refinement level; window size therefore shrinks
// automatically as placement progresses, exactly as the paper describes.
func (p *Placer) Reflow() {
	if p.Im.Level == 0 {
		return
	}
	p.reflowSweep(axisX)
	p.reflowSweep(axisY)
	p.SyncImage()
}

func (p *Placer) reflowSweep(ax axis) {
	nx, ny := p.Im.NX, p.Im.NY
	bw, bh := p.Im.BinW(), p.Im.BinH()

	// Bucket movable gates by cell once per sweep.
	cells := make([][]*netlist.Gate, nx*ny)
	p.NL.Gates(func(g *netlist.Gate) {
		if g.Fixed {
			return
		}
		ix, iy := p.Im.Loc(g.X, g.Y)
		cells[iy*nx+ix] = append(cells[iy*nx+ix], g)
	})

	sweep := func(i, j int) {
		var a, b int
		var cut float64
		var ca, cb float64
		if ax == axisX {
			a, b = j*nx+i, j*nx+i+1
			cut = float64(i+1) * bw
			ca = p.Im.At(i, j).AreaCap
			cb = p.Im.At(i+1, j).AreaCap
		} else {
			a, b = j*nx+i, (j+1)*nx+i
			cut = float64(j+1) * bh
			ca = p.Im.At(i, j).AreaCap
			cb = p.Im.At(i, j+1).AreaCap
		}
		merged := append(append([]*netlist.Gate{}, cells[a]...), cells[b]...)
		if len(merged) < 2 {
			return
		}
		// Reflow balance is pure capacity feasibility: any split where
		// neither side overflows is allowed, so logic can flow back into
		// areas the strict bipartitioner excluded.
		tch := p.NL.Lib.Tech
		var area float64
		for _, g := range merged {
			area += g.Area(tch)
		}
		target, tol := frac(ca, cb), tolerance
		if area > 0 {
			loF := math.Max(0, (area-cb)/area)
			hiF := math.Min(1, ca/area)
			if hiF > loF {
				target = (loF + hiF) / 2
				tol = (hiF - loF) / 2
			}
		}
		// Stage ids 3/4 keep reflow sweeps disjoint from the quadrisect
		// stages 0–2 in the derivation path space.
		s0, s1 := p.bisect(merged, ax, cut, target, tol, par.DeriveSeed(p.Seed, int64(a), int64(p.Im.Level), 3+int64(ax)), 1)
		// Reposition to the two cell centers.
		for _, g := range s0 {
			cx, cy := p.cellCenter(a)
			p.NL.MoveGate(g, cx, cy)
		}
		for _, g := range s1 {
			cx, cy := p.cellCenter(b)
			p.NL.MoveGate(g, cx, cy)
		}
		cells[a], cells[b] = s0, s1
	}

	// A sweep's windows chain along the sweep direction (adjacent windows
	// share a cell), so each row (x-sweep) or column (y-sweep) is one
	// serial lane. Lanes themselves only interact through scored nets that
	// couple gates of two lanes: color the lane conflict graph and run each
	// color class's lanes concurrently, classes in ascending order. A move
	// batch defers observer notification to a single ID-ordered replay, so
	// the analyzers hear the same schedule at every worker count — and
	// lanes within a class read and write disjoint gates, keeping the
	// fan-out race-free and the outcome identical to the 1-worker run.
	lanes := ny
	if ax == axisY {
		lanes = nx
	}
	gateLane := make([]int32, p.NL.GateCap())
	for i := range gateLane {
		gateLane[i] = -1
	}
	for ci, gs := range cells {
		l := ci / nx
		if ax == axisY {
			l = ci % nx
		}
		for _, g := range gs {
			gateLane[g.ID] = int32(l)
		}
	}
	color, ncolors := conflictColors(p.NL, gateLane, lanes, maxNetPins)

	runLane := func(l int) {
		if ax == axisX {
			for i := 0; i+1 < nx; i++ {
				sweep(i, l)
			}
		} else {
			for j := 0; j+1 < ny; j++ {
				sweep(l, j)
			}
		}
	}

	w := p.workers()
	p.NL.BeginMoveBatch()
	for c := 0; c < ncolors; c++ {
		var class []int
		for l := 0; l < lanes; l++ {
			if color[l] == c {
				class = append(class, l)
			}
		}
		par.ForEach(w, len(class), func(k int) { runLane(class[k]) })
	}
	p.NL.EndMoveBatch()
}

func (p *Placer) cellCenter(flat int) (float64, float64) {
	ix, iy := flat%p.Im.NX, flat/p.Im.NX
	return p.Im.Center(ix, iy)
}

// WirelengthHPWL returns the total weighted half-perimeter wire length —
// the placer's internal global objective, cheaper than Steiner and used by
// tests to verify each transform's monotone tendency.
func WirelengthHPWL(nl *netlist.Netlist) float64 {
	var total float64
	nl.Nets(func(n *netlist.Net) {
		pins := n.Pins()
		if len(pins) < 2 {
			return
		}
		pts := make([]steiner.Point, len(pins))
		for i, q := range pins {
			pts[i] = steiner.Point{X: q.X(), Y: q.Y()}
		}
		total += n.Weight * steiner.HPWL(pts)
	})
	return total
}

// SpreadWithinBins scatters gates that share a bin across the bin area in
// a deterministic grid, giving the detailed-placement and routing stages
// distinct starting coordinates. Called when placement reaches full
// refinement.
func (p *Placer) SpreadWithinBins() {
	nx := p.Im.NX
	cells := make([][]*netlist.Gate, nx*p.Im.NY)
	p.NL.Gates(func(g *netlist.Gate) {
		if g.Fixed {
			return
		}
		ix, iy := p.Im.Loc(g.X, g.Y)
		cells[iy*nx+ix] = append(cells[iy*nx+ix], g)
	})
	bw, bh := p.Im.BinW(), p.Im.BinH()
	for ci, gs := range cells {
		if len(gs) < 2 {
			continue
		}
		sort.Slice(gs, func(i, j int) bool { return gs[i].ID < gs[j].ID })
		ix, iy := ci%nx, ci/nx
		x0, y0 := float64(ix)*bw, float64(iy)*bh
		cols := 1
		for cols*cols < len(gs) {
			cols++
		}
		for k, g := range gs {
			gx := x0 + (float64(k%cols)+0.5)*bw/float64(cols)
			gy := y0 + (float64(k/cols)+0.5)*bh/float64(cols)
			p.NL.MoveGate(g, gx, gy)
		}
	}
}
