package probes

import (
	"context"
	"math/rand"

	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/rtree/arena"
	"lbsq/internal/tp"
)

// probeGeom replays the clips and subtractions that assembling the
// fixture's validity regions took: one ClipHalfPlane per influence pair
// of each NN answer, one Subtract per outer influence object of each
// window answer.
func probeGeom(_ context.Context, f *fixture, r *report) error {
	var clip, sub timings
	for _, v := range f.nn1 {
		if len(v.Pairs) == 0 {
			continue
		}
		clip.add(len(v.Pairs), func() {
			pg := f.uni.Universe.Polygon()
			for _, pr := range v.Pairs {
				pg = pg.ClipHalfPlane(geom.Bisector(pr.Member.P, pr.Obj.P))
			}
		})
	}
	// A Subtract is a few nanoseconds: time the answers fifty at a time.
	const group = 50
	for i := 0; i+group <= len(f.win); i += group {
		calls := 0
		for _, wv := range f.win[i : i+group] {
			calls += len(wv.OuterInfluence)
		}
		if calls == 0 {
			continue
		}
		sub.add(calls, func() {
			for _, wv := range f.win[i : i+group] {
				rr := geom.NewRectRegion(wv.InnerRect)
				for _, o := range wv.OuterInfluence {
					rr.Subtract(geom.RectCenteredAt(o.P, probeWindow, probeWindow))
				}
			}
		})
	}
	r.ns("geom.clip_halfplane_ns", clip)
	r.ns("geom.rectregion_subtract_ns", sub)
	return nil
}

// probeRtree times the window search on both layouts, the dynamic
// insert and delete, and the two bulk builders.
func probeRtree(_ context.Context, f *fixture, r *report) error {
	// A window of 1% of the universe's area.
	const side = 0.1
	var dst []rtree.Item
	for _, ix := range []struct {
		name string
		ix   rtree.Index
	}{{"rtree.pointer.window_ns", f.tree}, {"rtree.arena.window_ns", f.arena}} {
		var t timings
		na0 := ix.ix.NodeAccesses()
		for _, q := range f.q {
			w := geom.RectCenteredAt(q, side, side)
			t.add(1, func() { dst = ix.ix.SearchAppend(dst[:0], w) })
		}
		r.ns(ix.name, t)
		// Both layouts count the same accesses by construction.
		r.set("rtree.window_na", float64(ix.ix.NodeAccesses()-na0)/float64(len(f.q)), "NA/op")
	}

	scratch := rtree.BulkLoad(append([]rtree.Item(nil), f.uni.Items...), rtree.Options{}, 0)
	rng := rand.New(rand.NewSource(f.seed*613 + 3))
	fresh := make([]rtree.Item, queries)
	for i := range fresh {
		fresh[i] = rtree.Item{ID: int64(10*fixtureN + i), P: geom.Pt(rng.Float64(), rng.Float64())}
	}
	var ins, del timings
	for _, it := range fresh {
		ins.add(1, func() { scratch.Insert(it) })
	}
	for _, it := range fresh {
		del.add(1, func() { scratch.Delete(it) })
	}
	r.ns("rtree.insert_ns", ins)
	r.ns("rtree.delete_ns", del)

	var bulk, freeze timings
	for i := 0; i < 3; i++ {
		items := append([]rtree.Item(nil), f.uni.Items...)
		var t *rtree.Tree
		bulk.add(1, func() { t = rtree.BulkLoad(items, rtree.Options{}, 0) })
		freeze.add(1, func() { arena.Freeze(t) })
	}
	r.msOf("rtree.bulkload_ms", bulk)
	r.msOf("arena.freeze_ms", freeze)
	return nil
}

// probeNN times the best-first k-NN search on both layouts.
func probeNN(_ context.Context, f *fixture, r *report) error {
	var dst []nn.Neighbor
	for _, c := range []struct {
		name string
		ix   rtree.Index
		k    int
	}{
		{"nn.pointer.k1_ns", f.tree, 1}, {"nn.arena.k1_ns", f.arena, 1},
		{"nn.pointer.k10_ns", f.tree, 10}, {"nn.arena.k10_ns", f.arena, 10},
	} {
		var t timings
		na0 := c.ix.NodeAccesses()
		for _, q := range f.q {
			t.add(1, func() { dst = nn.KNearestInto(c.ix, q, c.k, dst[:0]) })
		}
		r.ns(c.name, t)
		if c.name == "nn.pointer.k1_ns" {
			r.set("nn.k1_na", float64(c.ix.NodeAccesses()-na0)/float64(len(f.q)), "NA/op")
		}
	}
	return nil
}

// probeTP times one time-parameterized probe per query: from the query
// point toward the first vertex of its validity region, which is the
// probe the region assembly itself issues.
func probeTP(_ context.Context, f *fixture, r *report) error {
	var nn1, knn10, win timings
	na0 := f.tree.NodeAccesses()
	probes := 0
	for i, q := range f.q {
		v := f.nn1[i]
		if len(v.Region) == 0 {
			continue
		}
		vertex := v.Region[0]
		nn1.add(1, func() { tp.NN(f.tree, q, vertex.Sub(q).Unit(), v.Neighbors[0].Item, q.Dist(vertex)) })
		probes++
	}
	r.ns("tp.nn_probe_ns", nn1)
	r.set("tp.nn_probe_na", float64(f.tree.NodeAccesses()-na0)/float64(probes), "NA/op")
	for i, q := range f.q {
		v := f.nn10[i]
		if len(v.Region) == 0 {
			continue
		}
		vertex, members := v.Region[0], v.Result()
		knn10.add(1, func() { tp.KNN(f.tree, q, vertex.Sub(q).Unit(), members, q.Dist(vertex)) })
	}
	r.ns("tp.knn10_probe_ns", knn10)
	for _, q := range f.q {
		w := geom.RectCenteredAt(q, probeWindow, probeWindow)
		win.add(1, func() { tp.Window(f.tree, w, geom.Pt(1, 0)) })
	}
	r.ns("tp.window_probe_ns", win)
	return nil
}
