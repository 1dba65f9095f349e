package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"lbsq/internal/geom"
	"lbsq/internal/rtree"
)

func sortedIDs(items []rtree.Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// walk generates a random-waypoint-ish trajectory of short steps.
func walk(rng *rand.Rand, n int, step float64) []geom.Point {
	p := geom.Pt(0.5, 0.5)
	out := []geom.Point{p}
	ang := rng.Float64() * 2 * math.Pi
	for len(out) < n {
		if rng.Float64() < 0.1 {
			ang = rng.Float64() * 2 * math.Pi
		}
		p = p.Add(geom.Pt(math.Cos(ang), math.Sin(ang)).Scale(step))
		if p.X < 0.05 || p.X > 0.95 || p.Y < 0.05 || p.Y > 0.95 {
			ang += math.Pi / 2
			p = geom.Pt(clamp(p.X), clamp(p.Y))
		}
		out = append(out, p)
	}
	return out
}

func clamp(x float64) float64 {
	if x < 0.05 {
		return 0.05
	}
	if x > 0.95 {
		return 0.95
	}
	return x
}

func TestNNClientAlwaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tree, items := buildTree(rng, 3000)
	s := NewServer(tree, universe)
	for _, k := range []int{1, 4} {
		c := NewNNClient(s, k)
		for _, p := range walk(rng, 300, 0.002) {
			got, err := c.At(p)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteKNNIDs(items, p, k)
			if !idsEqual(sortedIDs(got), want) {
				// Distance ties can reorder brute-force IDs; verify by
				// distance multiset instead of failing immediately.
				if !sameDistances(got, items, want, p) {
					t.Fatalf("k=%d at %v: client answer differs from brute force", k, p)
				}
			}
		}
		if c.Stats.ServerQueries == 0 || c.Stats.CacheHits == 0 {
			t.Fatalf("k=%d: degenerate stats %+v", k, c.Stats)
		}
		if c.Stats.ServerQueries+c.Stats.CacheHits != c.Stats.PositionUpdates {
			t.Fatalf("k=%d: stats don't add up: %+v", k, c.Stats)
		}
		if c.Stats.QueryRate() > 0.5 {
			t.Errorf("k=%d: query rate %.2f implausibly high for small steps",
				k, c.Stats.QueryRate())
		}
	}
}

func sameDistances(got []rtree.Item, items []rtree.Item, wantIDs []int64, p geom.Point) bool {
	if len(got) != len(wantIDs) {
		return false
	}
	gd := make([]float64, len(got))
	wd := make([]float64, len(wantIDs))
	byID := make(map[int64]rtree.Item, len(items))
	for _, it := range items {
		byID[it.ID] = it
	}
	for i := range got {
		gd[i] = got[i].P.Dist(p)
		wd[i] = byID[wantIDs[i]].P.Dist(p)
	}
	sort.Float64s(gd)
	sort.Float64s(wd)
	for i := range gd {
		if math.Abs(gd[i]-wd[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestWindowClientAlwaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tree, items := buildTree(rng, 3000)
	s := NewServer(tree, universe)
	c := NewWindowClient(s, 0.06, 0.06)
	for _, p := range walk(rng, 300, 0.002) {
		got, err := c.At(p)
		if err != nil {
			t.Fatal(err)
		}
		want := windowResultIDs(items, geom.RectCenteredAt(p, 0.06, 0.06))
		if !idsEqual(sortedIDs(got), want) {
			t.Fatalf("window client answer differs at %v", p)
		}
	}
	if c.Stats.CacheHits == 0 {
		t.Fatal("window client never reused its cache")
	}
}

func TestValidityClientBeatsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree, _ := buildTree(rng, 5000)
	s := NewServer(tree, universe)
	path := walk(rng, 500, 0.001)

	vc := NewNNClient(s, 1)
	nc := NewNaiveClient(s, 1)
	for _, p := range path {
		if _, err := vc.At(p); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.At(p); err != nil {
			t.Fatal(err)
		}
	}
	if nc.Stats.ServerQueries != len(path) {
		t.Fatalf("naive client queries = %d, want %d", nc.Stats.ServerQueries, len(path))
	}
	if vc.Stats.ServerQueries*5 > nc.Stats.ServerQueries {
		t.Errorf("validity client (%d queries) should be ≪ naive (%d)",
			vc.Stats.ServerQueries, nc.Stats.ServerQueries)
	}
}

func TestSR01ClientExactWhenValid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tree, items := buildTree(rng, 3000)
	s := NewServer(tree, universe)
	c := NewSR01Client(s, 2, 8)
	for _, p := range walk(rng, 300, 0.001) {
		got, err := c.At(p)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNNIDs(items, p, 2)
		if !idsEqual(sortedIDs(got), want) && !sameDistances(got, items, want, p) {
			t.Fatalf("SR01 answer differs at %v", p)
		}
	}
	if c.Stats.CacheHits == 0 {
		t.Fatal("SR01 client never used its buffer")
	}
}

func TestSR01Validity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree, items := buildTree(rng, 2000)
	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		r, err := SR01Query(tree, q, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		// Theorem of [SR01]: while Valid, ResultAt is the exact kNN.
		for s := 0; s < 30; s++ {
			ang := rng.Float64() * 2 * math.Pi
			d := rng.Float64() * 0.05
			p := q.Add(geom.Pt(math.Cos(ang), math.Sin(ang)).Scale(d))
			if !r.Valid(p) {
				continue
			}
			got := sortedIDs(r.ResultAt(p))
			want := bruteKNNIDs(items, p, 2)
			if !idsEqual(got, want) {
				gotItems := r.ResultAt(p)
				if !sameDistances(gotItems, items, want, p) {
					t.Fatalf("SR01 valid but wrong at %v", p)
				}
			}
		}
	}
	// m < k must error.
	if _, err := SR01Query(tree, geom.Pt(0.5, 0.5), 5, 3); err == nil {
		t.Fatal("m < k must error")
	}
}

func TestTP02ClientStraightLine(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tree, items := buildTree(rng, 2000)
	s := NewServer(tree, universe)
	c := NewTP02Client(s, 1)
	u := geom.Pt(1, 0)
	p := geom.Pt(0.1, 0.5)
	for i := 0; i < 400; i++ {
		got, err := c.At(p, u)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNNIDs(items, p, 1)
		if got[0].ID != want[0] {
			d1 := got[0].P.Dist(p)
			d2 := items[want[0]].P.Dist(p)
			if math.Abs(d1-d2) > 1e-9 {
				t.Fatalf("TP02 wrong at step %d: got %d want %d", i, got[0].ID, want[0])
			}
		}
		p = p.Add(u.Scale(0.002))
	}
	if c.Stats.CacheHits == 0 {
		t.Fatal("TP02 client never reused results on a straight line")
	}
	// Turning invalidates: the next call with a different direction
	// must hit the server.
	before := c.Stats.ServerQueries
	if _, err := c.At(p, geom.Pt(0, 1)); err != nil {
		t.Fatal(err)
	}
	if c.Stats.ServerQueries != before+1 {
		t.Fatal("direction change must force a server query")
	}
}

func TestWireRoundTripNN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree, _ := buildTree(rng, 1000)
	s := NewServer(tree, universe)
	v, _, err := s.NNQuery(geom.Pt(0.4, 0.6), 3)
	if err != nil {
		t.Fatal(err)
	}
	b := EncodeNN(v)
	got, err := DecodeNN(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != v.K || len(got.Neighbors) != len(v.Neighbors) ||
		len(got.Influence) != len(v.Influence) || len(got.Pairs) != len(v.Pairs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, v)
	}
	if got.Query != v.Query {
		t.Fatal("query point mangled")
	}
	for i := range v.Pairs {
		if got.Pairs[i].Obj.ID != v.Pairs[i].Obj.ID || got.Pairs[i].Member.ID != v.Pairs[i].Member.ID {
			t.Fatal("pairs mangled")
		}
	}
	// The decoded response validates identically (sampled).
	for i := 0; i < 200; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		if got.Valid(p) != v.Valid(p) {
			t.Fatalf("Valid disagrees at %v", p)
		}
	}
	// Corrupt data fails cleanly.
	if _, err := DecodeNN(b[:10]); err == nil {
		t.Fatal("truncated NN response must error")
	}
	if _, err := DecodeNN(nil); err == nil {
		t.Fatal("nil NN response must error")
	}
}

func TestWireRoundTripWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tree, _ := buildTree(rng, 3000)
	s := NewServer(tree, universe)
	w, _ := s.WindowQueryAt(geom.Pt(0.5, 0.5), 0.08, 0.08)
	b := EncodeWindow(w)
	got, err := DecodeWindow(b, universe)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Result) != len(w.Result) || len(got.OuterInfluence) != len(w.OuterInfluence) {
		t.Fatal("round trip counts mismatch")
	}
	if !rectAlmost(got.InnerRect, w.InnerRect) {
		t.Fatalf("inner rect mangled: %v vs %v", got.InnerRect, w.InnerRect)
	}
	for i := 0; i < 300; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		if got.Valid(p) != w.Valid(p) && !nearRegionBoundary(w.Region, p) {
			t.Fatalf("window Valid disagrees at %v", p)
		}
	}
	if _, err := DecodeWindow(b[:8], universe); err == nil {
		t.Fatal("truncated window response must error")
	}
}

// TestNNQueryCostSplit checks the paper's cost split (Fig. 27) on its
// algorithm, NNQueryTP: TP probes dominate the influence phase.
func TestNNQueryCostSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree, _ := buildTree(rng, 20000)
	s := NewServer(tree, universe)
	_, cost, err := s.NNQueryTP(geom.Pt(0.5, 0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if cost.ResultNA <= 0 || cost.InfNA <= 0 || cost.TPQueries <= 0 {
		t.Fatalf("cost split missing: %+v", cost)
	}
	// The paper reports the TPNN phase costing ≈12× the plain NN query
	// unbuffered; allow a wide band.
	ratio := float64(cost.InfNA) / float64(cost.ResultNA)
	if ratio < 2 || ratio > 40 {
		t.Errorf("influence/result NA ratio = %.1f, expected O(10)", ratio)
	}
	// Buffered: TP probes should mostly hit (Fig. 27b).
	s.AttachBuffer(0.10)
	var infNA, infPA int64
	for i := 0; i < 50; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		_, c, err := s.NNQueryTP(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		infNA += c.InfNA
		infPA += c.InfPA
	}
	if infPA*3 > infNA {
		t.Errorf("buffered TP faults %d not ≪ accesses %d", infPA, infNA)
	}
}

// TestQueryRateZeroUpdates guards the divide-by-zero case: a client
// that never reported a position must have rate 0, not NaN — a NaN
// here poisons the bench summary averages silently.
func TestQueryRateZeroUpdates(t *testing.T) {
	var s ClientStats
	if r := s.QueryRate(); math.IsNaN(r) || !geom.ExactZero(r) {
		t.Fatalf("QueryRate with zero updates = %v, want 0", r)
	}
	s = ClientStats{PositionUpdates: 4, ServerQueries: 1}
	if r := s.QueryRate(); !geom.Eq(r, 0.25) {
		t.Fatalf("QueryRate = %v, want 0.25", r)
	}
}
