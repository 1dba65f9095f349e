package probes

import (
	"context"
	"sync"

	"lbsq/bench/loadgen"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/qexec"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// probeCore times the location-based queries of core.Server — NN search
// plus TP-probe influence set plus region assembly — on both layouts,
// the influence phase alone, and the window query; the counts are the
// paper's own (Figs. 27–28, 34–35).
func probeCore(_ context.Context, f *fixture, r *report) error {
	var k1, k10, arenaK1, inf, win timings
	var resultNA, infNA, influence int64
	for _, q := range f.q {
		var v *core.NNValidity
		var cost core.QueryCost
		var err error
		k1.add(1, func() { v, cost, err = f.srv.NNQuery(q, 1) })
		if err != nil {
			return err
		}
		resultNA += cost.ResultNA
		infNA += cost.InfNA
		influence += int64(len(v.Influence))
		arenaK1.add(1, func() { _, _, err = f.srvA.NNQuery(q, 1) })
		if err != nil {
			return err
		}
		members := v.Result()
		inf.add(1, func() { _, err = core.InfluenceSetKNN(f.srv.Index, q, members, f.srv.Universe) })
		if err != nil {
			return err
		}
		w := geom.RectCenteredAt(q, probeWindow, probeWindow)
		win.add(1, func() { f.srv.WindowQuery(w) })
	}
	for _, q := range f.q[:queries/2] {
		var err error
		k10.add(1, func() { _, _, err = f.srv.NNQuery(q, 10) })
		if err != nil {
			return err
		}
	}
	n := float64(len(f.q))
	r.ns("core.nn_validity_k1_ns", k1)
	r.ns("core.nn_validity_k10_ns", k10)
	r.ns("core.arena.nn_validity_k1_ns", arenaK1)
	r.ns("core.nn_influence_k1_ns", inf)
	r.ns("core.window_validity_ns", win)
	r.set("core.nn_result_na", float64(resultNA)/n, "NA/op")
	r.set("core.nn_inf_na", float64(infNA)/n, "NA/op")
	r.set("core.influence_objects_per_nn", float64(influence)/n, "count/op")
	return nil
}

// probeWire times the response codec and the thin client's validity
// check on the fixture's k=1 answers.
func probeWire(_ context.Context, f *fixture, r *report) error {
	var enc, dec, valid timings
	var bytes int64
	for i, v := range f.nn1 {
		var b []byte
		enc.add(1, func() { b = core.EncodeNN(v) })
		bytes += int64(len(b))
		var err error
		dec.add(1, func() { _, err = core.DecodeNN(b) })
		if err != nil {
			return err
		}
		// Valid is a handful of multiplications: time it against a
		// hundred positions at once.
		pts := f.q[i%(len(f.q)-100):][:100]
		valid.add(len(pts), func() {
			for _, p := range pts {
				v.Valid(p)
			}
		})
	}
	r.ns("core.encode_nn_ns", enc)
	r.ns("core.decode_nn_ns", dec)
	r.ns("core.valid_check_ns", valid)
	r.set("core.nn_wire_bytes", float64(bytes)/float64(len(f.nn1)), "B/op")
	return nil
}

// probeQexec times the validity cache — a miss computes and stores the
// region, a hit answers from it — and the batch executor.
func probeQexec(ctx context.Context, f *fixture, r *report) error {
	var mu sync.RWMutex
	cached := qexec.New(f.srv, &mu, nil, qexec.Config{CacheSize: 2 * queries})
	var hit, miss timings
	for pass := 0; pass < 2; pass++ {
		for _, q := range f.q {
			var wasHit bool
			var err error
			var t timings
			t.add(1, func() { _, _, wasHit, _, err = cached.NNCached(ctx, q, 1) })
			if err != nil {
				return err
			}
			if wasHit {
				hit = append(hit, t...)
			} else {
				miss = append(miss, t...)
			}
		}
	}
	r.ns("qexec.cache_hit_ns", hit)
	r.ns("qexec.cache_miss_ns", miss)

	const size = 64
	plain := qexec.New(f.srv, &mu, nil, qexec.Config{})
	var batch timings
	for i := 0; i+size <= len(f.q); i += size {
		reqs := make([]qexec.Request, size)
		for j, q := range f.q[i : i+size] {
			reqs[j] = qexec.Request{Op: qexec.OpNN, Q: q, K: 1}
		}
		var err error
		batch.add(size, func() { _, err = plain.Batch(ctx, reqs) })
		if err != nil {
			return err
		}
	}
	r.ns("qexec.batch64_ns_per_req", batch)
	return nil
}

// probeSpans records the first probe queries as span trees: query ⊃
// nn.KNearestInto · core.InfluenceSetKNN · core.EncodeNN, timed in
// place, with the TP probes and clips inside the influence phase
// replayed right after and attached as estimates. What remains of
// core.InfluenceSetKNN after subtracting them is core's own time — an
// estimate too, until spans are recorded inside the program.
func probeSpans(_ context.Context, f *fixture, r *report) error {
	var dst []nn.Neighbor
	var clock, tpEst, geomEst, coreSelf float64
	next := 1
	for i, q := range f.q[:spanQueries] {
		var s timings // [knn, influence, encode, tp replay, geom replay]
		s.add(1, func() { dst = nn.KNearestInto(f.tree, q, 1, dst[:0]) })
		members := []rtree.Item{dst[0].Item}
		var v *core.NNValidity
		var err error
		s.add(1, func() { v, err = core.InfluenceSetKNN(f.tree, q, members, f.uni.Universe) })
		if err != nil {
			return err
		}
		s.add(1, func() { core.EncodeNN(v) })
		// The assembly issues one probe per influence pair and one per
		// confirmed vertex; replay one toward every vertex of the final
		// region and scale to the number it reported.
		s.add(1, func() {
			for _, vertex := range v.Region {
				tp.NN(f.tree, q, vertex.Sub(q).Unit(), members[0], q.Dist(vertex))
			}
		})
		if n := len(v.Region); n > 0 {
			s[3] *= float64(v.TPQueries) / float64(n)
		}
		s.add(1, func() {
			pg := f.uni.Universe.Polygon()
			for _, pr := range v.Pairs {
				pg = pg.ClipHalfPlane(geom.Bisector(pr.Member.P, pr.Obj.P))
			}
		})
		knn, influence, encode := s[0]/1e3, s[1]/1e3, s[2]/1e3
		tpUS, geomUS := s[3]/1e3, s[4]/1e3
		if tpUS+geomUS > influence { // a replay can run slower than the original
			scale := influence / (tpUS + geomUS)
			tpUS, geomUS = tpUS*scale, geomUS*scale
		}
		span := func(parent int, name string, start, end float64, estimate bool) int {
			id := next
			next++
			r.spans = append(r.spans, loadgen.Span{ID: id, Parent: parent, Op: i, Name: name,
				StartUS: start, EndUS: end, Estimate: estimate})
			return id
		}
		t0 := clock
		root := span(0, "query", t0, t0+knn+influence+encode, false)
		span(root, "nn.KNearestInto", t0, t0+knn, false)
		infID := span(root, "core.InfluenceSetKNN", t0+knn, t0+knn+influence, false)
		span(infID, "tp.NN (replayed)", t0+knn, t0+knn+tpUS, true)
		span(infID, "geom.ClipHalfPlane (replayed)", t0+knn+tpUS, t0+knn+tpUS+geomUS, true)
		span(root, "core.EncodeNN", t0+knn+influence, t0+knn+influence+encode, false)
		clock = t0 + knn + influence + encode
		tpEst += tpUS
		geomEst += geomUS
		coreSelf += influence - tpUS - geomUS
	}
	r.set("core.nn_influence_tp_est_us", tpEst/spanQueries, "us")
	r.set("core.nn_influence_geom_est_us", geomEst/spanQueries, "us")
	r.set("core.nn_influence_self_est_us", coreSelf/spanQueries, "us")
	return nil
}
