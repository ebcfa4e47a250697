// Package quadratic implements a GORDIAN-class quadratic placer (ref [14])
// used as the stand-alone placement step of the SPR baseline flow:
// minimize the quadratic (clique/star) wire-length objective with fixed
// pads as anchors via preconditioned conjugate gradient, then spread the
// solution over the die by recursive area-proportional median splitting.
// Legalization is left to place.Legalize, exactly as the paper's baseline
// separates global placement from legalization.
package quadratic

import (
	"math"
	"sort"

	"tps/internal/netlist"
	"tps/internal/par"
)

// Options tunes Place.
type Options struct {
	// CGIters bounds conjugate-gradient iterations per axis per solve.
	CGIters int
	// CGTol is the relative residual tolerance.
	CGTol float64
	// CliqueLimit is the max net size expanded as a clique; larger nets
	// use a star with a free center vertex.
	CliqueLimit int
	// MinRegion stops spreading when a region holds this few cells.
	MinRegion int
	// Seed salts the deterministic jitter that separates coincident cells
	// during spreading.
	Seed int64
	// Workers bounds the parallelism of the CG solves (SpMV rows and
	// pairwise dot-product reductions) and the spreading recursion. All
	// float64 reductions use a fixed-topology pairwise summation, so
	// results are bit-identical at any value; <=1 runs serially.
	Workers int
}

// DefaultOptions returns production-ish defaults.
func DefaultOptions() Options {
	return Options{CGIters: 300, CGTol: 1e-6, CliqueLimit: 6, MinRegion: 4}
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// Place computes locations for all movable gates of nl inside the
// chipW×chipH die. Fixed gates act as anchors. Zero-weight nets are
// ignored (the clock/scan schedule relies on this).
func Place(nl *netlist.Netlist, chipW, chipH float64, opt Options) {
	if opt.CGIters <= 0 {
		opt = DefaultOptions()
	}

	// Index movable gates.
	var movable []*netlist.Gate
	idx := map[*netlist.Gate]int{}
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			idx[g] = len(movable)
			movable = append(movable, g)
		}
	})
	n := len(movable)
	if n == 0 {
		return
	}

	// Count star centers.
	stars := 0
	nl.Nets(func(net *netlist.Net) {
		if net.Weight > 0 && net.NumPins() > opt.CliqueLimit {
			stars++
		}
	})
	dim := n + stars

	// Sparse symmetric matrix in adjacency form plus diagonal.
	diag := make([]float64, dim)
	adj := make([][]edge, dim)
	bx := make([]float64, dim)
	by := make([]float64, dim)

	addEdge := func(i, j int, w float64, xi, yi, xj, yj float64, iFree, jFree bool) {
		switch {
		case iFree && jFree:
			diag[i] += w
			diag[j] += w
			adj[i] = append(adj[i], edge{j, w})
			adj[j] = append(adj[j], edge{i, w})
		case iFree:
			diag[i] += w
			bx[i] += w * xj
			by[i] += w * yj
		case jFree:
			diag[j] += w
			bx[j] += w * xi
			by[j] += w * yi
		}
	}

	starAt := n
	nl.Nets(func(net *netlist.Net) {
		if net.Weight <= 0 {
			return
		}
		pins := net.Pins()
		if len(pins) < 2 {
			return
		}
		if len(pins) <= opt.CliqueLimit {
			w := net.Weight * 2.0 / float64(len(pins))
			for a := 0; a < len(pins); a++ {
				for b := a + 1; b < len(pins); b++ {
					ga, gb := pins[a].Gate, pins[b].Gate
					ia, aFree := idx[ga]
					ib, bFree := idx[gb]
					if !aFree && !bFree {
						continue
					}
					addEdge(ia, ib, w, ga.X, ga.Y, gb.X, gb.Y, aFree, bFree)
				}
			}
			return
		}
		// Star: center is a free variable.
		c := starAt
		starAt++
		w := net.Weight
		for _, p := range pins {
			g := p.Gate
			if i, free := idx[g]; free {
				addEdge(i, c, w, 0, 0, 0, 0, true, true)
			} else {
				diag[c] += w
				bx[c] += w * g.X
				by[c] += w * g.Y
			}
		}
	})

	// Regularize isolated/weakly-anchored variables toward die center so
	// the system is positive definite.
	const anchorEps = 1e-4
	for i := 0; i < dim; i++ {
		diag[i] += anchorEps
		bx[i] += anchorEps * chipW / 2
		by[i] += anchorEps * chipH / 2
	}

	// The two axis solves share only read-only state; fork them and split
	// the worker budget. Each solve's result is worker-count-invariant, so
	// the fork itself cannot perturb anything.
	axW := opt.workers() / 2
	if axW < 1 {
		axW = 1
	}
	var xs, ys []float64
	par.ForEach(min(opt.workers(), 2), 2, func(axis int) {
		axOpt := opt
		axOpt.Workers = axW
		if axis == 0 {
			xs = solveCG(diag, adj, bx, axOpt)
		} else {
			ys = solveCG(diag, adj, by, axOpt)
		}
	})

	for i, g := range movable {
		x := clamp(xs[i], 0, chipW)
		y := clamp(ys[i], 0, chipH)
		nl.MoveGate(g, x, y)
	}

	spread(nl, movable, chipW, chipH, opt)
}

// edge is one off-diagonal Laplacian entry (−w at column j).
type edge struct {
	j int
	w float64
}

// solveCG solves L·v = b with Jacobi-preconditioned conjugate gradient.
// SpMV and vector updates fan out over row ranges (disjoint writes) and
// every dot product runs through par.BlockSums' fixed-topology pairwise
// summation — the same discipline steiner.Cache uses — so the returned
// solution is a bit-exact match of the 1-worker solve at any worker count.
func solveCG(diag []float64, adj [][]edge, b []float64, opt Options) []float64 {
	dim := len(diag)
	w := opt.workers()
	x := make([]float64, dim)
	r := make([]float64, dim)
	z := make([]float64, dim)
	p := make([]float64, dim)
	ap := make([]float64, dim)

	mul := func(v, out []float64) {
		par.For(w, dim, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				s := diag[i] * v[i]
				for _, e := range adj[i] {
					s -= e.w * v[e.j]
				}
				out[i] = s
			}
		})
	}

	// x0 = D⁻¹ b is a decent start.
	par.For(w, dim, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = b[i] / diag[i]
		}
	})
	mul(x, ap)
	init := par.BlockSums(w, dim, 2, func(lo, hi int, partial []float64) {
		var rr, bb float64
		for i := lo; i < hi; i++ {
			r[i] = b[i] - ap[i]
			z[i] = r[i] / diag[i]
			p[i] = z[i]
			rr += r[i] * z[i]
			bb += b[i] * b[i]
		}
		partial[0], partial[1] = rr, bb
	})
	rr, bb := init[0], init[1]
	if bb == 0 {
		return x
	}
	for it := 0; it < opt.CGIters; it++ {
		mul(p, ap)
		pap := par.BlockSums(w, dim, 1, func(lo, hi int, partial []float64) {
			var s float64
			for i := lo; i < hi; i++ {
				s += p[i] * ap[i]
			}
			partial[0] = s
		})[0]
		if pap <= 0 {
			break
		}
		alpha := rr / pap
		upd := par.BlockSums(w, dim, 2, func(lo, hi int, partial []float64) {
			var rr2, rnorm float64
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
				z[i] = r[i] / diag[i]
				rr2 += r[i] * z[i]
				rnorm += r[i] * r[i]
			}
			partial[0], partial[1] = rr2, rnorm
		})
		rr2, rnorm := upd[0], upd[1]
		if math.Sqrt(rnorm/bb) < opt.CGTol {
			break
		}
		beta := rr2 / rr
		rr = rr2
		par.For(w, dim, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
	}
	return x
}

// spread removes the central clumping of the unconstrained quadratic
// solution: recursively split the cell set at the area median and assign
// each half to the corresponding half of the region, preserving relative
// order (a fractional-cut style spreading).
// spawnAbove is the recursive-spawn cutoff: subproblems smaller than this
// run inline rather than forking (the split bookkeeping would dominate).
const spawnAbove = 256

func spread(nl *netlist.Netlist, gates []*netlist.Gate, w, h float64, opt Options) {
	t := nl.Lib.Tech
	// The two halves of every split hold disjoint gate subslices and
	// disjoint regions, so the recursion forks onto a bounded Group; each
	// branch sorts and moves only its own gates and every random nudge is
	// salted from (Seed, gate ID) rather than drawn from a stream, so the
	// outcome is independent of which worker runs which branch. The move
	// batch defers observer notification to one ID-ordered replay.
	grp := par.NewGroup(opt.workers())
	var rec func(gs []*netlist.Gate, x0, y0, x1, y1 float64, vertical bool, depth int)
	rec = func(gs []*netlist.Gate, x0, y0, x1, y1 float64, vertical bool, depth int) {
		if len(gs) <= opt.MinRegion || depth > 24 {
			// Keep the quadratic shape: clamp into the region and nudge
			// coincident cells apart deterministically.
			seen := map[[2]float64]int{}
			for _, g := range gs {
				x := clamp(g.X, x0, x1)
				y := clamp(g.Y, y0, y1)
				k := [2]float64{x, y}
				if c := seen[k]; c > 0 {
					x = clamp(x+jitter(opt.Seed, g.ID, c, x1-x0)*0.3, x0, x1)
					y = clamp(y+jitter(opt.Seed, g.ID*31, c, y1-y0)*0.3, y0, y1)
				}
				seen[k]++
				nl.MoveGate(g, x, y)
			}
			return
		}
		if vertical {
			sort.SliceStable(gs, func(i, j int) bool { return gs[i].X < gs[j].X })
		} else {
			sort.SliceStable(gs, func(i, j int) bool { return gs[i].Y < gs[j].Y })
		}
		var total float64
		for _, g := range gs {
			total += g.Area(t) + 1e-3
		}
		half, cum := total/2, 0.0
		splitIdx := 0
		for i, g := range gs {
			cum += g.Area(t) + 1e-3
			if cum >= half {
				splitIdx = i + 1
				break
			}
		}
		if splitIdx == 0 || splitIdx == len(gs) {
			splitIdx = len(gs) / 2
		}
		lo, hi := gs[:splitIdx], gs[splitIdx:]
		spawn := func(gs []*netlist.Gate, x0, y0, x1, y1 float64) {
			if len(gs) > spawnAbove {
				grp.Spawn(func() { rec(gs, x0, y0, x1, y1, !vertical, depth+1) })
			} else {
				rec(gs, x0, y0, x1, y1, !vertical, depth+1)
			}
		}
		if vertical {
			xm := (x0 + x1) / 2
			spawn(lo, x0, y0, xm, y1)
			spawn(hi, xm, y0, x1, y1)
		} else {
			ym := (y0 + y1) / 2
			spawn(lo, x0, y0, x1, ym)
			spawn(hi, x0, ym, x1, y1)
		}
	}
	gs := append([]*netlist.Gate(nil), gates...)
	nl.BeginMoveBatch()
	rec(gs, 0, 0, w, h, true, 0)
	grp.Wait()
	nl.EndMoveBatch()
}

// jitter derives a small deterministic offset for coincidence breaking,
// salted through the SplitMix64 seed derivation so the value depends only
// on (seed, id, collision count) — never on which worker placed the
// neighboring regions or in what order.
func jitter(seed int64, id, c int, span float64) float64 {
	u := float64(uint64(par.DeriveSeed(seed, int64(id), int64(c)))&0xffff)/65535 - 0.5
	return u * span * 0.8
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
