package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
)

// exactRegion is the brute-force validity region of members: the universe
// clipped by the bisector of every member with every other item, with
// the served path's clipping tolerance. An item is skipped only when no
// current vertex is closer to it than to that vertex's farthest member,
// so none of its bisectors can cut.
func exactRegion(items []rtree.Item, members []rtree.Item, uni geom.Rect) geom.Polygon {
	pg := uni.Polygon()
	for _, o := range items {
		if isMember(members, o.ID) {
			continue
		}
		reaches := false
		for _, v := range pg {
			for _, m := range members {
				if v.Dist2(o.P) < v.Dist2(m.P) {
					reaches = true
				}
			}
		}
		if !reaches {
			continue
		}
		for _, m := range members {
			h := geom.Bisector(m.P, o.P)
			pg = pg.ClipHalfPlaneTol(h, exactTol(h))
			if len(pg) == 0 {
				return pg
			}
		}
	}
	return pg
}

// significantVertices counts the vertices of pg that close an edge longer
// than 10⁻⁶ of the perimeter: the paper loop's coarser clipping drops
// edges shorter than that.
func significantVertices(pg geom.Polygon) int {
	min := 1e-6 * pg.Perimeter()
	n := 0
	for i := range pg {
		if pg[i].Dist(pg[(i+1)%len(pg)]) > min {
			n++
		}
	}
	return n
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-300)
}

// sameRegion reports how got differs from want: vertex count (ignoring
// edges shorter than 10⁻⁶ of the perimeter) and area within 10⁻⁶
// relative.
func sameRegion(got, want geom.Polygon) error {
	if significantVertices(got) != significantVertices(want) || relDiff(got.Area(), want.Area()) > 1e-6 {
		return fmt.Errorf("%d vertices, area %.10g; want %d vertices, area %.10g",
			len(got), got.Area(), len(want), want.Area())
	}
	return nil
}

// checkEdgePairs verifies that every pair's bisector carries an edge of
// the region: two distinct consecutive vertices within 10⁻⁸ of the line.
func checkEdgePairs(v *NNValidity) error {
	pg := v.Region
	for _, pr := range v.Pairs {
		h := geom.Bisector(pr.Member.P, pr.Obj.P)
		n := math.Hypot(h.A, h.B)
		edge := false
		for i := range pg {
			a, b := pg[i], pg[(i+1)%len(pg)]
			if math.Abs(h.Eval(a))/n <= 1e-8 && math.Abs(h.Eval(b))/n <= 1e-8 && !geom.SamePoint(a, b) {
				edge = true
				break
			}
		}
		if !edge {
			return fmt.Errorf("pair (%d, %d) carries no region edge", pr.Obj.ID, pr.Member.ID)
		}
	}
	return nil
}

// checkSamples verifies the result by brute force at points drawn inside
// the region: random convex combinations of its vertices, pulled 10⁻³ of
// the way toward the centroid to stay clear of the boundary.
func checkSamples(rng *rand.Rand, items []rtree.Item, v *NNValidity, n int) error {
	pg := v.Region
	c := pg.Centroid()
	members := v.Result()
	for s := 0; s < n; s++ {
		var p geom.Point
		tot := 0.0
		for _, vert := range pg {
			w := -math.Log(1 - rng.Float64())
			p = p.Add(vert.Scale(w))
			tot += w
		}
		p = p.Scale(1 / tot)
		p = c.Add(p.Sub(c).Scale(1 - 1e-3))
		far := 0.0
		for _, m := range members {
			far = math.Max(far, p.Dist(m.P))
		}
		for _, o := range items {
			if !isMember(members, o.ID) && p.Dist(o.P) < far-1e-13 {
				return fmt.Errorf("at %v outsider %d is nearer than a member", p, o.ID)
			}
		}
	}
	return nil
}

type regionFixture struct {
	name  string
	items []rtree.Item
	srv   *Server
}

// regionFixtures builds every dataset shape as a bulk-loaded and an
// insert-built tree, each under the pointer and the arena layout.
func regionFixtures() []regionFixture {
	var out []regionFixture
	for _, d := range []*dataset.Dataset{
		dataset.Uniform(20000, 1), dataset.GRLike(20000, 2), dataset.NALike(20000, 3),
	} {
		inserted := rtree.NewDefault()
		for _, it := range d.Items[:8000] {
			inserted.Insert(it)
		}
		for _, b := range []struct {
			name  string
			tree  *rtree.Tree
			items []rtree.Item
		}{
			{"bulk", rtree.BulkLoad(d.Items, rtree.Options{}, 0.7), d.Items},
			{"insert", inserted, d.Items[:8000]},
		} {
			for _, arena := range []bool{false, true} {
				s := NewServer(b.tree, d.Universe)
				name := d.Name + "/" + b.name + "/pointer"
				if arena {
					s.UseArena()
					name = d.Name + "/" + b.name + "/arena"
				}
				out = append(out, regionFixture{name: name, items: b.items, srv: s})
			}
		}
	}
	return out
}

// TestGuardedRegionMatchesReference runs the served region (NNQuery)
// against the paper's TP loop (NNQueryTP) and brute force on every
// fixture, for k ∈ {1, 10}: same region, the result holds inside it,
// every emitted pair is an edge, and at most a tree height more node
// accesses than the TP loop.
func TestGuardedRegionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, f := range regionFixtures() {
		f := f
		height := f.srv.Index.Height()
		for _, k := range []int{1, 10} {
			t.Run(fmt.Sprintf("%s/k=%d", f.name, k), func(t *testing.T) {
				var probes int
				for i := 0; i < 15; i++ {
					q := f.items[rng.Intn(len(f.items))].P.Add(geom.Pt(rng.Float64()*2e-3-1e-3, rng.Float64()*2e-3-1e-3))
					if !f.srv.Universe.Contains(q) {
						continue
					}
					got, gc, err := f.srv.NNQuery(q, k)
					if err != nil {
						t.Fatal(err)
					}
					ref, rc, err := f.srv.NNQueryTP(q, k)
					if err != nil {
						t.Fatal(err)
					}
					probes += gc.TPQueries
					exact := exactRegion(f.items, got.Result(), f.srv.Universe)
					if err := sameRegion(got.Region, exact); err != nil {
						t.Fatalf("q=%v: served region vs brute force: %v", q, err)
					}
					if ref.Region.IsEmpty() {
						// The paper loop reads regions of area ≤ Eps as empty.
						if got.Region.Area() > 2*geom.Eps {
							t.Fatalf("q=%v: reference empty, served area %g", q, got.Region.Area())
						}
					} else if err := sameRegion(got.Region, ref.Region); err != nil {
						t.Fatalf("q=%v: served region vs TP reference: %v", q, err)
					}
					if err := checkEdgePairs(got); err != nil {
						t.Fatalf("q=%v: %v", q, err)
					}
					if err := checkSamples(rng, f.items, got, 4); err != nil {
						t.Fatalf("q=%v: %v", q, err)
					}
					if gc.Total() > rc.Total()+int64(height) {
						t.Fatalf("q=%v: served %d NA > reference %d + height %d", q, gc.Total(), rc.Total(), height)
					}
				}
				t.Logf("TP probes on the served path: %d", probes)
			})
		}
	}
}

// TestGuardedRegionStripShards runs InfluenceSetKNN on shards holding
// vertical strips of the data, as the shard and cluster nodes do: a
// shard owning the members builds its part by the guard (queries near
// its edge browse the most), the others fall back to the TP loop. Each
// part must match the TP reference's, cost at most a tree height more,
// and the parts must merge into the exact global region.
func TestGuardedRegionStripShards(t *testing.T) {
	d := dataset.Uniform(20000, 4)
	full := rtree.BulkLoad(d.Items, rtree.Options{}, 0.7)
	const strips = 4
	parts := make([][]rtree.Item, strips)
	for _, it := range d.Items {
		s := int(it.P.X * strips)
		parts[s] = append(parts[s], it)
	}
	trees := make([]*rtree.Tree, strips)
	for i := range parts {
		trees[i] = rtree.BulkLoad(parts[i], rtree.Options{}, 0.7)
	}
	rng := rand.New(rand.NewSource(46))
	var owned, foreign int
	for _, k := range []int{1, 10} {
		for i := 0; i < 40; i++ {
			// Half the queries sit within 10⁻³ of a strip edge.
			q := geom.Pt(rng.Float64(), rng.Float64())
			if i%2 == 0 {
				q.X = float64(1+rng.Intn(strips-1))/strips + rng.Float64()*2e-3 - 1e-3
			}
			var members []rtree.Item
			for _, nb := range nn.KNearest(full, q, k) {
				members = append(members, nb.Item)
			}
			merged := d.Universe.Polygon()
			for s, tr := range trees {
				na0 := tr.NodeAccesses()
				got, err := InfluenceSetKNN(tr, q, members, d.Universe)
				if err != nil {
					t.Fatal(err)
				}
				na1 := tr.NodeAccesses()
				ref, err := InfluenceSetKNNTP(tr, q, members, d.Universe, OrderFirst)
				if err != nil {
					t.Fatal(err)
				}
				na2 := tr.NodeAccesses()
				if got.TPQueries == ref.TPQueries && len(got.Pairs) == len(ref.Pairs) {
					foreign++
				} else {
					owned++
				}
				if !ref.Region.IsEmpty() {
					if err := sameRegion(got.Region, ref.Region); err != nil {
						t.Fatalf("k=%d q=%v strip %d: %v", k, q, s, err)
					}
				}
				if na1-na0 > na2-na1+int64(tr.Height()) {
					t.Fatalf("k=%d q=%v strip %d: %d NA > reference %d + height %d", k, q, s, na1-na0, na2-na1, tr.Height())
				}
				for _, pr := range got.Pairs {
					h := geom.Bisector(pr.Member.P, pr.Obj.P)
					merged = merged.ClipHalfPlaneTol(h, exactTol(h))
				}
			}
			if err := sameRegion(merged, exactRegion(d.Items, members, d.Universe)); err != nil {
				t.Fatalf("k=%d q=%v: merged parts vs brute force: %v", k, q, err)
			}
		}
	}
	if owned == 0 || foreign == 0 {
		t.Fatalf("fixture exercised owned=%d foreign=%d parts; want both", owned, foreign)
	}
}

// TestGuardedRegionTinyRegion: on 100k uniform points the k=10 query at
// (0.485091, 0.728868) has a valid region of area ≈ 6.9·10⁻¹⁰, below
// geom.Eps, which the paper loop's clipping reads as empty. The served
// path must return it.
func TestGuardedRegionTinyRegion(t *testing.T) {
	d := dataset.Uniform(100000, 7)
	q := dataset.QueryPoints(d, 3000, 11)[2585]
	if math.Abs(q.X-0.485091) > 1e-6 || math.Abs(q.Y-0.728868) > 1e-6 {
		t.Fatalf("fixture drifted: query %v", q)
	}
	s := NewServer(d.Tree(), d.Universe)
	ref, _, err := s.NNQueryTP(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Region.IsEmpty() {
		t.Logf("the TP reference now finds the region (area %g)", ref.Region.Area())
	}
	got, _, err := s.NNQuery(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Region) < 3 || got.Region.Area() <= 0 {
		t.Fatalf("served region is empty")
	}
	if a := got.Region.Area(); a < 6.8e-10 || a > 7e-10 {
		t.Fatalf("served region area %g, want ≈ 6.9e-10", a)
	}
	if err := sameRegion(got.Region, exactRegion(d.Items, got.Result(), d.Universe)); err != nil {
		t.Fatalf("served region vs brute force: %v", err)
	}
	if err := checkSamples(rand.New(rand.NewSource(1)), d.Items, got, 8); err != nil {
		t.Fatal(err)
	}
}

// TestServedInfluenceCost: on 20k uniform points the served region costs
// on average at most one tree height of node accesses beyond the
// result's own descent under the default page size. With 512-byte pages
// (TestNNQueryCostSplit's fixture) a leaf holds a tenth of the points,
// and the browse to the guard distance reads more leaves than the tree
// is high (5.7 at height 4 when written), still a twentieth of the TP
// loop's; that case is held to two heights.
func TestServedInfluenceCost(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pages   int
		heights float64
	}{{"default pages", 0, 1}, {"512-byte pages", 512, 2}} {
		rng := rand.New(rand.NewSource(9))
		items := make([]rtree.Item, 20000)
		for i := range items {
			items[i] = rtree.Item{ID: int64(i), P: geom.Pt(rng.Float64(), rng.Float64())}
		}
		tree := rtree.BulkLoad(items, rtree.Options{PageSize: tc.pages}, 0.7)
		s := NewServer(tree, universe)
		var infNA int64
		const queries = 200
		for i := 0; i < queries; i++ {
			_, c, err := s.NNQuery(geom.Pt(rng.Float64(), rng.Float64()), 1)
			if err != nil {
				t.Fatal(err)
			}
			infNA += c.InfNA
		}
		mean := float64(infNA) / queries
		if mean > tc.heights*float64(tree.Height()) {
			t.Errorf("%s: mean served InfNA %.2f above %g × tree height %d", tc.name, mean, tc.heights, tree.Height())
		}
		t.Logf("%s: mean served InfNA %.2f, tree height %d", tc.name, mean, tree.Height())
	}
}
