package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
)

var universe = geom.R(0, 0, 1, 1)

func buildTree(rng *rand.Rand, n int) (*rtree.Tree, []rtree.Item) {
	items := make([]rtree.Item, n)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i), P: geom.Pt(rng.Float64(), rng.Float64())}
	}
	return rtree.BulkLoad(items, rtree.Options{PageSize: 512}, 0.7), items
}

// bruteVoronoiCell clips the universe with the bisector against every
// other point: the ground-truth Voronoi cell of site o.
func bruteVoronoiCell(items []rtree.Item, o rtree.Item, uni geom.Rect) geom.Polygon {
	pg := uni.Polygon()
	for _, it := range items {
		if it.ID == o.ID {
			continue
		}
		pg = pg.ClipHalfPlane(geom.Bisector(o.P, it.P))
		if pg.IsEmpty() {
			return pg
		}
	}
	return pg
}

func bruteKNNIDs(items []rtree.Item, q geom.Point, k int) []int64 {
	type nd struct {
		id int64
		d  float64
	}
	all := make([]nd, len(items))
	for i, it := range items {
		all[i] = nd{it.ID, it.P.Dist2(q)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	ids := make([]int64, k)
	for i := 0; i < k; i++ {
		ids[i] = all[i].id
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestValidityRegionEqualsVoronoiCell(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tree, items := buildTree(rng, 800)
	for trial := 0; trial < 60; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		o, _ := nn.Nearest(tree, q)
		v, err := InfluenceSet1NN(tree, q, o.Item, universe)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cell := bruteVoronoiCell(items, o.Item, universe)
		if math.Abs(v.Region.Area()-cell.Area()) > 1e-9 {
			t.Fatalf("trial %d: region area %v != Voronoi cell area %v",
				trial, v.Region.Area(), cell.Area())
		}
		// Sampled containment equivalence.
		for s := 0; s < 40; s++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			in1, in2 := v.Region.ContainsStrict(p), cell.ContainsStrict(p)
			out1, out2 := !v.Region.Contains(p), !cell.Contains(p)
			if (in1 && out2) || (in2 && out1) {
				t.Fatalf("trial %d: containment disagrees at %v", trial, p)
			}
		}
	}
}

func TestValidityRegionSemantics1NN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tree, items := buildTree(rng, 1000)
	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		o, _ := nn.Nearest(tree, q)
		v, err := InfluenceSet1NN(tree, q, o.Item, universe)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Region.Contains(q) {
			t.Fatalf("trial %d: query point outside its own validity region", trial)
		}
		for s := 0; s < 60; s++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			wantNN := bruteKNNIDs(items, p, 1)[0]
			if v.Region.ContainsStrict(p) && wantNN != o.Item.ID {
				// Tolerate exact ties only.
				d1 := p.Dist(items[wantNN].P)
				d2 := p.Dist(o.Item.P)
				if math.Abs(d1-d2) > 1e-9 {
					t.Fatalf("trial %d: point %v in region has NN %d, expected %d",
						trial, p, wantNN, o.Item.ID)
				}
			}
			if !v.Region.Contains(p) && wantNN == o.Item.ID {
				// p outside the region must have a different NN — unless it
				// is within floating noise of the boundary.
				if v.Region.DistToBoundary(p) > 1e-7 {
					t.Fatalf("trial %d: point %v outside region still has NN %d",
						trial, p, o.Item.ID)
				}
			}
		}
	}
}

func TestValidityRegionSemanticsKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree, items := buildTree(rng, 600)
	for _, k := range []int{2, 3, 5, 10} {
		for trial := 0; trial < 20; trial++ {
			q := geom.Pt(rng.Float64(), rng.Float64())
			nbs := nn.KNearest(tree, q, k)
			members := make([]rtree.Item, k)
			wantIDs := make([]int64, k)
			for i, nb := range nbs {
				members[i] = nb.Item
				wantIDs[i] = nb.Item.ID
			}
			sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
			v, err := InfluenceSetKNN(tree, q, members, universe)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Region.Contains(q) {
				t.Fatalf("k=%d trial %d: query outside region", k, trial)
			}
			for s := 0; s < 40; s++ {
				p := geom.Pt(rng.Float64(), rng.Float64())
				if !v.Region.ContainsStrict(p) {
					continue
				}
				got := bruteKNNIDs(items, p, k)
				same := true
				for i := range got {
					if got[i] != wantIDs[i] {
						same = false
					}
				}
				if !same {
					// Accept only boundary-tie noise.
					if v.Region.DistToBoundary(p) > 1e-7 {
						t.Fatalf("k=%d trial %d: kNN set changed strictly inside region at %v",
							k, trial, p)
					}
				}
			}
		}
	}
}

func TestInfluenceSetMinimality(t *testing.T) {
	// Dropping any influence pair must strictly enlarge the region
	// (Definition 1: every influence object contributes an edge).
	rng := rand.New(rand.NewSource(4))
	tree, _ := buildTree(rng, 700)
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		o, _ := nn.Nearest(tree, q)
		v, err := InfluenceSet1NN(tree, q, o.Item, universe)
		if err != nil {
			t.Fatal(err)
		}
		full := v.Region.Area()
		for drop := range v.Pairs {
			pg := universe.Polygon()
			for i, pr := range v.Pairs {
				if i == drop {
					continue
				}
				pg = pg.ClipHalfPlane(geom.Bisector(pr.Member.P, pr.Obj.P))
			}
			if pg.Area() <= full+1e-15 {
				t.Fatalf("trial %d: dropping pair %d does not enlarge the region "+
					"(influence set not minimal)", trial, drop)
			}
		}
	}
}

func TestLemma32QueryCount(t *testing.T) {
	// The number of TP probes of the paper's loop (InfluenceSetKNNTP) is
	// ninf + nv (Lemma 3.2). Our loop counts
	// pair discoveries (ninf) plus confirmations; every confirmation
	// corresponds to a final-region vertex probe, so TPQueries must be
	// at least len(Pairs) + len(Region) and stay in the same ballpark.
	rng := rand.New(rand.NewSource(5))
	tree, _ := buildTree(rng, 2000)
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64()*0.8+0.1, rng.Float64()*0.8+0.1)
		o, _ := nn.Nearest(tree, q)
		v, err := InfluenceSetKNNTP(tree, q, []rtree.Item{o.Item}, universe, OrderFirst)
		if err != nil {
			t.Fatal(err)
		}
		if v.TPQueries < len(v.Pairs)+1 {
			t.Fatalf("TPQueries=%d < pairs+1=%d", v.TPQueries, len(v.Pairs)+1)
		}
		if v.TPQueries > len(v.Pairs)+v.Region.Edges()+4 {
			t.Fatalf("TPQueries=%d exceeds ninf+nv bound (%d pairs, %d vertices)",
				v.TPQueries, len(v.Pairs), v.Region.Edges())
		}
	}
}

func TestAverageEdgesIsAboutSix(t *testing.T) {
	// [A91]: the expected number of Voronoi edges for uniform data is 6.
	// Interior queries on a moderately sized dataset should land close.
	rng := rand.New(rand.NewSource(6))
	tree, _ := buildTree(rng, 5000)
	totEdges, totInf, n := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		q := geom.Pt(rng.Float64()*0.8+0.1, rng.Float64()*0.8+0.1)
		o, _ := nn.Nearest(tree, q)
		v, err := InfluenceSet1NN(tree, q, o.Item, universe)
		if err != nil {
			t.Fatal(err)
		}
		totEdges += v.Region.Edges()
		totInf += len(v.Influence)
		n++
	}
	avgE := float64(totEdges) / float64(n)
	avgI := float64(totInf) / float64(n)
	if avgE < 4.5 || avgE > 7.5 {
		t.Errorf("average edges = %.2f, expected ≈ 6", avgE)
	}
	if avgI < 4.5 || avgI > 7.5 {
		t.Errorf("average |Sinf| = %.2f, expected ≈ 6", avgI)
	}
}

func TestValidHalfPlaneCheckMatchesRegion(t *testing.T) {
	// The client-side Valid() (half-plane test) must agree with the
	// polygon region for points inside the universe.
	rng := rand.New(rand.NewSource(7))
	tree, _ := buildTree(rng, 900)
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		o, _ := nn.Nearest(tree, q)
		v, err := InfluenceSet1NN(tree, q, o.Item, universe)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 50; s++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			inPoly := v.Region.ContainsStrict(p)
			outPoly := !v.Region.Contains(p)
			hp := v.Valid(p)
			if inPoly && !hp {
				t.Fatalf("half-plane check rejects interior point %v", p)
			}
			if outPoly && hp && v.Region.DistToBoundary(p) > 1e-7 {
				t.Fatalf("half-plane check accepts exterior point %v", p)
			}
		}
	}
}

func TestKNNInfluenceObjectsFewerThanPairs(t *testing.T) {
	// For k > 1 an influence object may contribute several edges (pair
	// with several members), so |Sinf| ≤ |Sinf_p| — Fig. 25b's effect.
	rng := rand.New(rand.NewSource(8))
	tree, _ := buildTree(rng, 3000)
	sawFewer := false
	for trial := 0; trial < 60; trial++ {
		q := geom.Pt(rng.Float64()*0.8+0.1, rng.Float64()*0.8+0.1)
		nbs := nn.KNearest(tree, q, 10)
		members := make([]rtree.Item, len(nbs))
		for i, nb := range nbs {
			members[i] = nb.Item
		}
		v, err := InfluenceSetKNN(tree, q, members, universe)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Influence) > len(v.Pairs) {
			t.Fatal("more influence objects than pairs")
		}
		if len(v.Influence) < len(v.Pairs) {
			sawFewer = true
		}
	}
	if !sawFewer {
		t.Error("never saw an influence object contributing multiple edges for k=10")
	}
}

func TestDegenerateInputs(t *testing.T) {
	// Duplicate points tied as NN: must terminate without error.
	tree := rtree.NewDefault()
	dup := geom.Pt(0.5, 0.5)
	tree.Insert(rtree.Item{ID: 1, P: dup})
	tree.Insert(rtree.Item{ID: 2, P: dup})
	tree.Insert(rtree.Item{ID: 3, P: geom.Pt(0.9, 0.9)})
	q := geom.Pt(0.4, 0.5)
	o, _ := nn.Nearest(tree, q)
	v, err := InfluenceSet1NN(tree, q, o.Item, universe)
	if err != nil {
		t.Fatalf("duplicate dataset: %v", err)
	}
	_ = v

	// Query exactly at a data point.
	q2 := geom.Pt(0.9, 0.9)
	o2, _ := nn.Nearest(tree, q2)
	if o2.Dist != 0 {
		t.Fatal("setup: expected zero-distance NN")
	}
	if _, err := InfluenceSet1NN(tree, q2, o2.Item, universe); err != nil {
		t.Fatalf("query at data point: %v", err)
	}

	// Empty member set.
	if _, err := InfluenceSetKNN(tree, q, nil, universe); err == nil {
		t.Fatal("empty members must error")
	}

	// Two-point dataset: the region is a clipped half-plane.
	tree2 := rtree.NewDefault()
	tree2.Insert(rtree.Item{ID: 1, P: geom.Pt(0.25, 0.5)})
	tree2.Insert(rtree.Item{ID: 2, P: geom.Pt(0.75, 0.5)})
	o3, _ := nn.Nearest(tree2, geom.Pt(0.3, 0.5))
	v3, err := InfluenceSet1NN(tree2, geom.Pt(0.3, 0.5), o3.Item, universe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v3.Region.Area()-0.5) > 1e-9 {
		t.Fatalf("two-point region area = %v, want 0.5", v3.Region.Area())
	}
	if len(v3.Influence) != 1 || v3.Influence[0].ID != 2 {
		t.Fatalf("influence set = %v, want just point 2", v3.Influence)
	}
}

func TestQueryNearUniverseCorner(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree, items := buildTree(rng, 500)
	for _, q := range []geom.Point{
		geom.Pt(0.001, 0.001), geom.Pt(0.999, 0.001),
		geom.Pt(0.001, 0.999), geom.Pt(0.999, 0.999),
	} {
		o, _ := nn.Nearest(tree, q)
		v, err := InfluenceSet1NN(tree, q, o.Item, universe)
		if err != nil {
			t.Fatalf("corner %v: %v", q, err)
		}
		cell := bruteVoronoiCell(items, o.Item, universe)
		if math.Abs(v.Region.Area()-cell.Area()) > 1e-9 {
			t.Fatalf("corner %v: area %v != cell %v", q, v.Region.Area(), cell.Area())
		}
	}
}

func TestRegionPolygonFromPairs(t *testing.T) {
	// A decoded (wire-form) response reconstructs the same region the
	// server computed, from pairs alone.
	rng := rand.New(rand.NewSource(10))
	tree, _ := buildTree(rng, 1200)
	for trial := 0; trial < 30; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		o, _ := nn.Nearest(tree, q)
		v, err := InfluenceSet1NN(tree, q, o.Item, universe)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeNN(EncodeNN(v))
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := decoded.RegionPolygon(universe)
		if math.Abs(rebuilt.Area()-v.Region.Area()) > 1e-12 {
			t.Fatalf("trial %d: rebuilt area %v vs server %v",
				trial, rebuilt.Area(), v.Region.Area())
		}
	}
}
