package probes

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	"lbsq"
	"lbsq/internal/dist"
	"lbsq/internal/obs"
)

// armed is how many sessions the write-side session probes keep open.
const armed = 500

// probeSession times the continuous-query sessions of the public DB on
// the GR-like fixture (the dataset fleet_session runs on): open, a move
// that stays inside the armed region, a move that jumps out of it, the
// INSQ strategy's repair, and what 500 armed sessions add to an insert.
func probeSession(ctx context.Context, f *fixture, r *report) (err error) {
	u := f.gr.Universe
	db, err := lbsq.Open(f.gr.Items, u, nil)
	if err != nil {
		return err
	}
	defer closing(db, &err)
	var open, hit, requery timings
	var out lbsq.SessionMove
	for i, q := range f.grQ[:armed] {
		var s *lbsq.Session
		open.add(1, func() { s, _, err = db.OpenSession(ctx, q, 1) })
		if err != nil {
			return err
		}
		// Re-reporting the same position cannot leave the region.
		hit.add(1, func() { err = s.MoveInto(ctx, q, &out) })
		if err != nil {
			return err
		}
		if !out.Hit {
			return fmt.Errorf("session probe: move to the query point was not a region hit")
		}
		// Another query point is far outside any one region, and off
		// the extrapolated trajectory, so the move re-queries.
		far := f.grQ[armed+i]
		var t timings
		t.add(1, func() { err = s.MoveInto(ctx, far, &out) })
		if err != nil {
			return err
		}
		if out.Requeried {
			requery = append(requery, t...)
		}
	}
	r.ns("session.open_ns", open)
	r.ns("session.move_hit_ns", hit)
	r.ns("session.move_requery_ns", requery)

	// INSQ repairs its influential neighbour set instead of re-querying
	// when the client leaves the safe region but stays within the guard.
	insq, err := lbsq.Open(f.gr.Items, u, &lbsq.Options{SessionStrategy: lbsq.SessionStrategyINSQ})
	if err != nil {
		return err
	}
	defer closing(insq, &err)
	var repair timings
	step := u.Width() * 2e-4
	for _, q := range f.grQ[:armed] {
		s, _, err := insq.OpenSession(ctx, q, 1)
		if err != nil {
			return err
		}
		for j := 1; j <= 8; j++ {
			p := lbsq.Pt(q.X+float64(j)*step, q.Y)
			if !u.Contains(p) {
				break
			}
			var t timings
			t.add(1, func() { err = s.MoveInto(ctx, p, &out) })
			if err != nil {
				return err
			}
			if out.Repaired {
				repair = append(repair, t...)
			}
		}
	}
	r.ns("insq.move_repair_ns", repair)

	// The same inserts into the DB with its armed sessions and into one
	// with none: the difference, insert by insert, is the sessions'
	// puncture tests. (An insert costs a hundred times the difference, so
	// the difference of the two medians would be mostly noise.)
	bare, err := lbsq.Open(f.gr.Items, u, nil)
	if err != nil {
		return err
	}
	defer closing(bare, &err)
	var extra timings
	for i, q := range f.grQ[:armed] {
		it := lbsq.Item{ID: int64(10*fixtureN + i), P: q}
		var with, without timings
		with.add(1, func() { err = db.Insert(it) })
		if err != nil {
			return err
		}
		without.add(1, func() { err = bare.Insert(it) })
		if err != nil {
			return err
		}
		extra = append(extra, with[0]-without[0])
	}
	r.ns("session.on_insert_500_ns", extra)
	return nil
}

// probeShard times the in-process four-shard scatter — not served by any
// workload today; it is the parity guard against dist.* for the planned
// merge of the two scatter engines.
func probeShard(ctx context.Context, f *fixture, r *report) (err error) {
	db, err := lbsq.OpenSharded(f.uni.Items, f.uni.Universe, 4, nil)
	if err != nil {
		return err
	}
	defer closing(db, &err)
	var nn, win timings
	for _, q := range f.q[:queries/2] {
		nn.add(1, func() { _, _, err = db.NN(ctx, q, 1) })
		if err != nil {
			return err
		}
		win.add(1, func() { _, _, err = db.WindowAt(ctx, q, probeWindow, probeWindow) })
		if err != nil {
			return err
		}
	}
	r.ns("shard.nn_4shards_ns", nn)
	r.ns("shard.window_4shards_ns", win)
	return nil
}

// handlerTransport delivers shard RPC bodies straight to a handler and
// times the handler alone, so the insert probe uses the repo's own RPC
// encoding without a socket in the way.
type handlerTransport struct {
	h http.Handler
	t *timings
}

func (ht handlerTransport) Do(ctx context.Context, _ string, body []byte) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/shard", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	ht.t.add(1, func() { ht.h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("shard handler: status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// probeHTTP times the handlers the workloads hit, without a network:
// DB.Handler().ServeHTTP against a recorder, on a DB opened the way
// lbsq-server opens it.
func probeHTTP(ctx context.Context, f *fixture, r *report) (err error) {
	db, err := lbsq.Open(f.uni.Items, f.uni.Universe, &lbsq.Options{BufferFraction: 0.10})
	if err != nil {
		return err
	}
	defer closing(db, &err)
	h := db.Handler()
	serve := func(t *timings, method, url string, body []byte) (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(method, url, bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		t.add(1, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, url, rec.Code, rec.Body.String())
		}
		return rec, nil
	}
	var nn, win, move, insert timings
	for i, q := range f.q[:queries/2] {
		if _, err := serve(&nn, http.MethodGet, fmt.Sprintf("/v1/nn?x=%g&y=%g&k=1", q.X, q.Y), nil); err != nil {
			return err
		}
		if _, err := serve(&win, http.MethodGet,
			fmt.Sprintf("/v1/window?x=%g&y=%g&qx=%g&qy=%g", q.X, q.Y, probeWindow, probeWindow), nil); err != nil {
			return err
		}
		if i >= armed {
			continue
		}
		s, _, err := db.OpenSession(ctx, q, 1)
		if err != nil {
			return err
		}
		// A region hit: the handler's own cost, with no query under it.
		if _, err := serve(&move, http.MethodPost, "/v1/session/"+s.ID()+"/move",
			[]byte(fmt.Sprintf(`{"x":%g,"y":%g}`, q.X, q.Y))); err != nil {
			return err
		}
	}
	backend := dist.NewRemoteBackend("probe", f.uni.Universe, handlerTransport{h, &insert})
	for i, q := range f.q[:armed] {
		if err := backend.Insert(ctx, lbsq.Item{ID: int64(10*fixtureN + i), P: q}); err != nil {
			return err
		}
	}
	r.ns("http.nn_handler_ns", nn)
	r.ns("http.window_handler_ns", win)
	r.ns("http.session_move_handler_ns", move)
	r.ns("http.shard_insert_handler_ns", insert)
	return nil
}

// probeObs times one histogram observation: the guard that metrics stay
// far cheaper than the handlers they sit in.
func probeObs(_ context.Context, _ *fixture, r *report) error {
	h := obs.NewRegistry().Histogram("lbsq_probe_duration_us", "Probe histogram.", nil, obs.LatencyBucketsUS)
	var t timings
	const calls = 1000
	for i := 0; i < 200; i++ {
		t.add(calls, func() {
			for j := 0; j < calls; j++ {
				h.Observe(float64(j))
			}
		})
	}
	r.ns("obs.observe_ns", t)
	return nil
}
