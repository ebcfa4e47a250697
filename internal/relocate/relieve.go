package relocate

import "tps/internal/congestion"

// RelieveCongestion is the congestion-elimination transform sketched in §1: "a
// transform to eliminate wire congestion can do this … by moving cells".
// Bins whose boundary wiring demand exceeds capacity shed non-critical
// cells through the circuit-relocation utility — every cell that leaves
// takes its incident wiring along, lowering the local crossing counts.
// The timing engine (inside the relocator) keeps critical cells pinned.
// Returns the number of cells moved.
// cong is the design's congestion analyzer over the relocator's image
// rel.Im; its Analyze refreshes WireUsed on the bins before the hot spots
// are ranked.
// stop, when non-nil, is polled between hot-spot bins (safe commit
// points); a non-nil return stops the pass with the moves so far kept.
func RelieveCongestion(cong *congestion.Analyzer, rel *Relocator, maxMoves int, stop func() error) int {
	im := rel.Im
	cong.Analyze()

	type hot struct {
		flat     int
		overflow float64
	}
	var hots []hot
	for j := 0; j < im.NY; j++ {
		for i := 0; i < im.NX; i++ {
			b := im.At(i, j)
			over := (b.WireUsedH - b.WireCapH) + (b.WireUsedV - b.WireCapV)
			if b.WireUsedH > b.WireCapH || b.WireUsedV > b.WireCapV {
				hots = append(hots, hot{j*im.NX + i, over})
			}
		}
	}
	// Worst congestion first (deterministic: overflow then index).
	for i := 1; i < len(hots); i++ {
		for k := i; k > 0 && (hots[k].overflow > hots[k-1].overflow ||
			(hots[k].overflow == hots[k-1].overflow && hots[k].flat < hots[k-1].flat)); k-- {
			hots[k], hots[k-1] = hots[k-1], hots[k]
		}
	}

	moved := 0
	for _, h := range hots {
		if stop != nil && stop() != nil {
			break
		}
		if maxMoves > 0 && moved >= maxMoves {
			break
		}
		ix, iy := h.flat%im.NX, h.flat/im.NX
		cx, cy := im.Center(ix, iy)
		b := im.At(ix, iy)
		// Ask the relocator to push area (and with it, wiring) out of the
		// bin: shed a quarter of the occupied area, bounded by demand.
		want := b.AreaUsed * 0.25
		if want <= 0 {
			continue
		}
		before := rel.Moves
		rel.FreeSpace(cx, cy, b.Free()+want)
		moved += rel.Moves - before
	}
	return moved
}
