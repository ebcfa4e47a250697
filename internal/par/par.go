// Package par is the parallel evaluation layer shared by the incremental
// analyzers (Steiner cache, delay calculator, timing engine, congestion and
// routing evaluation). It provides bounded, chunked fan-out over index
// ranges with a *deterministic* chunking function, so callers can allocate
// per-chunk shards up front and merge them in chunk order. Every analyzer
// that uses this package is required to produce bit-identical results for
// any worker count: workers only ever write chunk-private state or disjoint
// slots of a result slice, and all floating-point reductions happen
// serially in index order after the fan-out completes.
//
// A panic on a goroutine this package forks, or in a Group task run
// inline, is recovered there and raised again on the forking goroutine
// once every worker has joined, so the caller's own recover (a tpsd
// job's, a race entrant's) sees it instead of the process dying.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// minGrain is the smallest amount of work worth shipping to a goroutine.
// Chunks never get smaller than this, so tiny inputs run on the caller's
// goroutine with zero overhead.
const minGrain = 32

// Workers returns the default worker count: GOMAXPROCS at call time.
func Workers() int { return runtime.GOMAXPROCS(0) }

// NumChunks returns the number of chunks For will use for n items with w
// workers. It is a pure function of (w, n); callers rely on that to size
// shard arrays before fanning out.
func NumChunks(w, n int) int {
	if w < 1 {
		w = 1
	}
	c := (n + minGrain - 1) / minGrain
	if c > w {
		c = w
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chunkBounds returns the half-open range [lo, hi) of chunk k of c over n
// items. Chunks are contiguous and balanced to within one item.
func chunkBounds(k, c, n int) (lo, hi int) {
	return k * n / c, (k + 1) * n / c
}

// For runs body over [0, n) split into NumChunks(w, n) contiguous chunks,
// one goroutine per chunk (at most w goroutines in flight). body receives
// the chunk index and its half-open range; it must confine writes to
// chunk-private state or to slots indexed by the item index, never to
// shared accumulators. For returns after every chunk completes. With one
// chunk the body runs synchronously on the caller's goroutine, making
// w <= 1 exactly the serial evaluation order.
func For(w, n int, body func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	c := NumChunks(w, n)
	if c == 1 {
		body(0, 0, n)
		return
	}
	var j join
	j.wg.Add(c - 1)
	for k := 1; k < c; k++ {
		lo, hi := chunkBounds(k, c, n)
		go func(k, lo, hi int) {
			defer j.done()
			body(k, lo, hi)
		}(k, lo, hi)
	}
	// Chunk 0 runs on the caller's goroutine: one fewer handoff, and the
	// caller participates instead of blocking idle. The deferred join
	// waits for the workers even when chunk 0 panics.
	defer j.wait()
	lo, hi := chunkBounds(0, c, n)
	body(0, lo, hi)
}

// SumInts runs For and returns the sum of per-chunk int subtotals, merged
// in chunk order. Suitable for counters (integer-valued, order-exact).
func SumInts(w, n int, body func(chunk, lo, hi int) int) int {
	c := NumChunks(w, n)
	parts := make([]int, c)
	For(w, n, func(chunk, lo, hi int) {
		parts[chunk] = body(chunk, lo, hi)
	})
	var total int
	for _, p := range parts {
		total += p
	}
	return total
}

// ForEach runs body(i) for every i in [0, n) with at most w goroutines in
// flight, claiming items dynamically from a shared counter. Unlike For it
// tolerates wildly uneven per-item cost (one slow item does not stall a
// whole chunk), at the price of a nondeterministic item→worker assignment —
// so body must confine its writes to item-private state (slot i of a result
// slice), which makes the overall result independent of the claim order.
// With w <= 1 the items run on the caller's goroutine in index order.
func ForEach(w, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next int64
	run := func() {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			body(i)
		}
	}
	var j join
	j.wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer j.done()
			run()
		}()
	}
	defer j.wait()
	run() // the caller participates
}

// Group is a bounded fork-join scope for recursive parallel decomposition
// (the transform execution layer's recursive-spawn primitive). Spawn hands
// the task to a fresh goroutine when a worker slot is free and otherwise
// runs it inline on the caller — so recursion can spawn at every split
// without unbounded goroutine growth, and a saturated pool degenerates to
// plain depth-first execution. Inline execution never holds a slot, which
// makes nested Spawn deadlock-free at any depth. Tasks must be mutually
// independent (disjoint writes); results are then independent of which
// tasks ran inline versus stolen.
type Group struct {
	sem chan struct{}
	j   join
}

// NewGroup returns a fork-join scope with at most workers-1 helper
// goroutines (the caller is the remaining worker).
func NewGroup(workers int) *Group {
	if workers < 1 {
		workers = 1
	}
	return &Group{sem: make(chan struct{}, workers-1)}
}

// Spawn schedules task; it may run concurrently or inline. Call Wait before
// using any state the spawned tasks write. A panic in a task, inline or
// not, is held for Wait, so Spawn returns normally either way.
func (g *Group) Spawn(task func()) {
	g.j.wg.Add(1)
	select {
	case g.sem <- struct{}{}:
		go func() {
			defer g.j.done()
			defer func() { <-g.sem }()
			task()
		}()
	default:
		func() {
			defer g.j.done()
			task()
		}()
	}
}

// Wait blocks until every task has finished, then re-raises the first
// panic a task raised.
func (g *Group) Wait() { g.j.wait() }

// join is the barrier behind For, ForEach and Group: it waits for the
// goroutines they fork (and a Group's inline tasks) and carries the first
// panic among them back to the forking goroutine.
type join struct {
	wg sync.WaitGroup
	mu sync.Mutex
	p  *workerPanic
}

// done marks one forked goroutine or inline task finished. Each defers it
// directly, so its recover catches that task's panic.
func (j *join) done() {
	if v := recover(); v != nil {
		p := &workerPanic{value: v, stack: debug.Stack()}
		j.mu.Lock()
		if j.p == nil {
			j.p = p
		}
		j.mu.Unlock()
	}
	j.wg.Done()
}

// wait joins the forked goroutines, then panics again with the first
// panic one of them raised.
func (j *join) wait() {
	j.wg.Wait()
	if j.p != nil {
		panic(j.p)
	}
}

// workerPanic is a panic raised on a forked goroutine, re-raised on the
// forking one. Its message keeps the original value first and appends
// the worker's stack, which the re-raise would otherwise lose.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v\n\npar worker stack:\n%s", p.value, p.stack)
}

// sumBlock is the fixed leaf width of the pairwise summation used by
// BlockSums. It is a constant — never a function of the worker count — so
// the reduction topology, and therefore every float64 result, is identical
// at any parallelism.
const sumBlock = 256

// BlockSums computes k simultaneous float64 sums over [0, n) with the same
// fixed-topology pairwise-summation discipline the Steiner cache uses for
// its totals: the range is cut into ceil(n/sumBlock) fixed leaves, block
// accumulates each leaf's k partial sums serially, and the leaves are folded
// in a fixed binary tree. Leaf boundaries and tree shape depend only on n,
// so the result is bit-identical for every worker count w — including w=1 —
// which is what lets the quadratic placer's conjugate-gradient reductions
// fan out without perturbing the solve.
func BlockSums(w, n, k int, block func(lo, hi int, partial []float64)) []float64 {
	out := make([]float64, k)
	if n <= 0 || k <= 0 {
		return out
	}
	nb := (n + sumBlock - 1) / sumBlock
	parts := make([]float64, nb*k)
	For(w, nb, func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo := b * sumBlock
			hi := lo + sumBlock
			if hi > n {
				hi = n
			}
			block(lo, hi, parts[b*k:(b+1)*k])
		}
	})
	// Fixed pairwise fold over the leaf partials (width-doubling tree).
	for width := 1; width < nb; width *= 2 {
		for i := 0; i+width < nb; i += 2 * width {
			a := parts[i*k : (i+1)*k]
			b := parts[(i+width)*k : (i+width+1)*k]
			for c := 0; c < k; c++ {
				a[c] += b[c]
			}
		}
	}
	copy(out, parts[:k])
	return out
}

// SplitMix64 is the SplitMix64 finalizer: a bijective avalanche mix in
// which every input bit affects every output bit.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed hashes a root seed with a path of identifiers (cell salt,
// refinement level, restart index, ...) into an independent child seed.
// Parallel transforms key every random decision on a derived seed instead
// of a shared RNG stream, which is what makes their results independent of
// execution order: sibling subproblems draw from decorrelated streams no
// matter which worker runs them first. SplitMix64 chaining keeps the
// derivation splittable (any component change reseeds the whole subtree)
// while making collisions between distinct paths vanishingly unlikely.
func DeriveSeed(root int64, path ...int64) int64 {
	h := SplitMix64(uint64(root))
	for _, p := range path {
		h = SplitMix64(h ^ SplitMix64(uint64(p)))
	}
	return int64(h)
}
