package netlist

// arenaChunk is the element count per arena chunk. Chunks are allocated at
// full capacity and never reallocated, so pointers into a chunk stay valid
// for the life of the netlist.
const arenaChunk = 4096

// arena is a chunked bump allocator. It exists so Gate, Net, and Pin objects
// (and the []*Pin backing of Gate.Pins) are laid out densely in allocation
// order instead of one heap object per AddGate/Connect: analyzer loops that
// walk gates or pins in ID order then walk memory nearly sequentially, and
// the GC sees thousands of objects per chunk instead of one each.
//
// alloc/allocN never move previously returned elements: each chunk is created
// with len==cap slack tracked separately, and a request that does not fit the
// current chunk opens a new one (sized to the request when it exceeds
// arenaChunk, so huge requests still get contiguous storage).
type arena[T any] struct {
	chunks [][]T
	// used is the element count consumed from the last chunk.
	used int
}

// allocN returns a zeroed, contiguous slice of n elements with cap==n (so
// appends by the caller can never grow into neighbouring allocations).
func (a *arena[T]) allocN(n int) []T {
	if n == 0 {
		return nil
	}
	if len(a.chunks) == 0 || a.used+n > cap(a.chunks[len(a.chunks)-1]) {
		sz := arenaChunk
		if n > sz {
			sz = n
		}
		a.chunks = append(a.chunks, make([]T, sz))
		a.used = 0
	}
	c := a.chunks[len(a.chunks)-1]
	s := c[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// alloc returns a pointer to one zeroed element.
func (a *arena[T]) alloc() *T {
	s := a.allocN(1)
	return &s[0]
}
