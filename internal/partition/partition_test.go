package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// twoClusters builds a hypergraph with two dense clusters joined by k
// bridge nets; the optimal bipartition cuts exactly the bridges.
func twoClusters(n, bridges int, seed int64) *Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	h := &Hypergraph{NumV: 2 * n}
	// Dense intra-cluster 2-pin nets.
	for c := 0; c < 2; c++ {
		base := c * n
		for i := 0; i < 3*n; i++ {
			a := base + rng.Intn(n)
			b := base + rng.Intn(n)
			if a != b {
				h.Nets = append(h.Nets, []int32{int32(a), int32(b)})
			}
		}
	}
	for i := 0; i < bridges; i++ {
		h.Nets = append(h.Nets, []int32{int32(rng.Intn(n)), int32(n + rng.Intn(n))})
	}
	return h
}

func TestBipartitionFindsClusters(t *testing.T) {
	h := twoClusters(40, 3, 1)
	res := Bipartition(h, DefaultOptions(1))
	if res.Cut > 8 {
		t.Errorf("cut = %g, want ≈3 (bridges only)", res.Cut)
	}
	// Balance: each side should have ~40 vertices.
	c0 := 0
	for _, p := range res.Part {
		if p == 0 {
			c0++
		}
	}
	if c0 < 30 || c0 > 50 {
		t.Errorf("side0 = %d of 80", c0)
	}
}

func TestCutComputation(t *testing.T) {
	h := &Hypergraph{
		NumV: 4,
		Nets: [][]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
	}
	part := []int8{0, 0, 1, 1}
	if c := Cut(h, part); c != 2 {
		t.Errorf("cut = %g, want 2", c)
	}
	h.Weight = []float64{1, 5, 1, 5}
	if c := Cut(h, part); c != 10 {
		t.Errorf("weighted cut = %g, want 10", c)
	}
}

func TestFixedVerticesRespected(t *testing.T) {
	h := twoClusters(30, 2, 5)
	h.Fixed = make([]int8, h.NumV)
	for i := range h.Fixed {
		h.Fixed[i] = -1
	}
	// Pin a handful of cluster-0 vertices to side 1 (perverse on purpose).
	for i := 0; i < 5; i++ {
		h.Fixed[i] = 1
	}
	h.Fixed[59] = 0
	res := Bipartition(h, DefaultOptions(2))
	for i := 0; i < 5; i++ {
		if res.Part[i] != 1 {
			t.Fatalf("fixed vertex %d moved to side %d", i, res.Part[i])
		}
	}
	if res.Part[59] != 0 {
		t.Fatalf("fixed vertex 59 moved")
	}
}

func TestNetWeightsSteerCut(t *testing.T) {
	// A ring of 6 vertices; one edge has huge weight — the cut must avoid
	// it.
	h := &Hypergraph{
		NumV:   6,
		Nets:   [][]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}},
		Weight: []float64{1, 1, 100, 1, 1, 1},
	}
	opt := DefaultOptions(3)
	opt.Tolerance = 0.34 // allow 2/4 splits on 6 unit areas
	res := Bipartition(h, opt)
	if res.Part[2] != res.Part[3] {
		t.Errorf("heavy net cut: parts %v", res.Part)
	}
}

func TestTargetFraction(t *testing.T) {
	h := twoClusters(40, 4, 9)
	opt := DefaultOptions(4)
	opt.TargetFrac = 0.25
	opt.Tolerance = 0.08
	res := Bipartition(h, opt)
	area0 := 0.0
	for v, p := range res.Part {
		_ = v
		if p == 0 {
			area0++
		}
	}
	frac := area0 / 80
	if frac < 0.15 || frac > 0.36 {
		t.Errorf("side0 fraction = %g, want ≈0.25", frac)
	}
}

func TestVertexAreasBalance(t *testing.T) {
	// One huge vertex: balance must account for area, not count.
	h := &Hypergraph{NumV: 11, Area: make([]float64, 11)}
	for i := range h.Area {
		h.Area[i] = 1
	}
	h.Area[0] = 10
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		a, b := rng.Intn(11), rng.Intn(11)
		if a != b {
			h.Nets = append(h.Nets, []int32{int32(a), int32(b)})
		}
	}
	opt := DefaultOptions(5)
	opt.Tolerance = 0.2
	res := Bipartition(h, opt)
	var area0 float64
	for v, p := range res.Part {
		if p == 0 {
			area0 += h.Area[v]
		}
	}
	if area0 < 20*0.3 || area0 > 20*0.7 {
		t.Errorf("area0 = %g of 20", area0)
	}
}

// Property: FM never worsens the cut and always respects fixed vertices.
func TestBipartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		h := &Hypergraph{NumV: n, Fixed: make([]int8, n)}
		for i := range h.Fixed {
			h.Fixed[i] = -1
		}
		if n > 2 {
			h.Fixed[0] = 0
			h.Fixed[1] = 1
		}
		nets := 2 * n
		for i := 0; i < nets; i++ {
			deg := 2 + rng.Intn(3)
			var net []int32
			for j := 0; j < deg; j++ {
				net = append(net, int32(rng.Intn(n)))
			}
			h.Nets = append(h.Nets, net)
		}
		opt := DefaultOptions(seed)
		opt.Tolerance = 0.25
		res := Bipartition(h, opt)
		if res.Part[0] != 0 || res.Part[1] != 1 {
			return false
		}
		// Cut of result must match recomputation and be ≤ all-random.
		if Cut(h, res.Part) != res.Cut {
			return false
		}
		c0 := 0
		for _, p := range res.Part {
			if p == 0 {
				c0++
			}
		}
		return c0 > 0 && c0 < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	h := twoClusters(50, 5, 77)
	a := Bipartition(h, DefaultOptions(42))
	b := Bipartition(h, DefaultOptions(42))
	if a.Cut != b.Cut {
		t.Fatalf("non-deterministic cut: %g vs %g", a.Cut, b.Cut)
	}
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			t.Fatalf("non-deterministic partition at %d", i)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	// No nets.
	h := &Hypergraph{NumV: 5}
	res := Bipartition(h, DefaultOptions(1))
	if len(res.Part) != 5 || res.Cut != 0 {
		t.Errorf("no-net result %+v", res)
	}
	// Single-pin and duplicate-pin nets are dropped.
	h2 := &Hypergraph{NumV: 4, Nets: [][]int32{{0}, {1, 1}, {2, 3}}}
	res2 := Bipartition(h2, DefaultOptions(1))
	if res2.Cut > 1 {
		t.Errorf("degenerate nets counted in cut: %g", res2.Cut)
	}
}

func TestAllFixed(t *testing.T) {
	h := &Hypergraph{NumV: 4, Fixed: []int8{0, 0, 1, 1},
		Nets: [][]int32{{0, 2}, {1, 3}}}
	res := Bipartition(h, DefaultOptions(1))
	want := []int8{0, 0, 1, 1}
	for i := range want {
		if res.Part[i] != want[i] {
			t.Fatalf("all-fixed partition altered: %v", res.Part)
		}
	}
	if res.Cut != 2 {
		t.Errorf("cut = %g, want 2", res.Cut)
	}
}

// TestWorkerInvariance requires Bipartition to return the exact same
// partition whether the random restarts run serially or 8-wide: each
// restart derives its own seed from the restart index and the winner is
// picked by an ascending strict-< scan, so completion order can never
// leak into the result.
func TestWorkerInvariance(t *testing.T) {
	h := twoClusters(50, 5, 77)
	o1 := DefaultOptions(42)
	o1.Workers = 1
	o8 := DefaultOptions(42)
	o8.Workers = 8
	a := Bipartition(h, o1)
	b := Bipartition(h, o8)
	if a.Cut != b.Cut {
		t.Fatalf("cut diverged across worker counts: %g vs %g", a.Cut, b.Cut)
	}
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			t.Fatalf("partition diverged at vertex %d", i)
		}
	}
}

// TestTieCodeMatchesLookAhead drives full Bipartition runs over random
// weighted hypergraphs with every tie fmPass pushes cross-checked against
// the reference lookAheadGain as of the vertex's last gain update
// (tieCheck panics on the first diverging bit).
func TestTieCodeMatchesLookAhead(t *testing.T) {
	tieCheck = true
	defer func() { tieCheck = false }()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		h := &Hypergraph{NumV: n, Fixed: make([]int8, n)}
		for i := range h.Fixed {
			h.Fixed[i] = -1
		}
		h.Fixed[0] = 0
		h.Fixed[1] = 1
		for i := 0; i < 3*n; i++ {
			deg := 2 + rng.Intn(6)
			var net []int32
			for j := 0; j < deg; j++ {
				net = append(net, int32(rng.Intn(n)))
			}
			h.Nets = append(h.Nets, net)
			h.Weight = append(h.Weight, 0.25+rng.Float64())
		}
		Bipartition(h, DefaultOptions(seed))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
