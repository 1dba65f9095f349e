package qexec

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"lbsq/internal/core"
	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/obs"
	"lbsq/internal/shard"
)

// testEngines builds an unsharded and a sharded executor over the same
// dataset.
func testEngines(t *testing.T, cfg Config) (*dataset.Dataset, *Executor, *Executor) {
	t.Helper()
	d := dataset.Uniform(2000, 41)
	srv := core.NewServer(d.Tree(), d.Universe)
	var mu sync.RWMutex
	local := New(srv, &mu, nil, cfg)
	cl, err := shard.NewCluster(d.Items, d.Universe, shard.Options{Shards: 5, Strategy: shard.KDMedian})
	if err != nil {
		t.Fatal(err)
	}
	sharded := New(nil, nil, cl, cfg)
	return d, local, sharded
}

// randomRequests draws a mixed batch over every op, including
// degenerate parameters.
func randomRequests(rng *rand.Rand, d *dataset.Dataset, n int) []Request {
	u := d.Universe
	pt := func() geom.Point {
		return geom.Pt(u.MinX+rng.Float64()*u.Width(), u.MinY+rng.Float64()*u.Height())
	}
	reqs := make([]Request, n)
	for i := range reqs {
		q := pt()
		switch rng.Intn(6) {
		case 0:
			reqs[i] = Request{Op: OpNN, Q: q, K: 1 + rng.Intn(6)}
		case 1:
			reqs[i] = Request{Op: OpKNN, Q: q, K: 1 + rng.Intn(6)}
		case 2:
			reqs[i] = Request{Op: OpWindow, Q: q,
				W: geom.RectCenteredAt(q, (0.005+rng.Float64()*0.04)*u.Width(), (0.005+rng.Float64()*0.04)*u.Height())}
		case 3:
			reqs[i] = Request{Op: OpRange, Q: q, Radius: rng.Float64() * 0.03 * u.Width()}
		case 4:
			reqs[i] = Request{Op: OpCount, W: geom.RectCenteredAt(q, rng.Float64()*0.2*u.Width(), rng.Float64()*0.2*u.Height())}
		default:
			reqs[i] = Request{Op: OpSearch, W: geom.RectCenteredAt(q, rng.Float64()*0.2*u.Width(), rng.Float64()*0.2*u.Height())}
		}
	}
	return reqs
}

// sequential answers one request through the executor's per-query
// machinery (cache disabled in this test), the reference for batches.
func sequential(t *testing.T, e *Executor, r Request) Response {
	t.Helper()
	ctx := context.Background()
	var resp Response
	switch r.Op {
	case OpNN:
		resp.NN, resp.Cost, _, _, resp.Err = e.NNCached(ctx, r.Q, r.K)
	case OpWindow:
		resp.Window, resp.Cost, _, _, resp.Err = e.WindowCached(ctx, r.W)
	default:
		if e.cluster != nil {
			bresps, err := e.cluster.BatchCtx(ctx, []shard.BatchReq{{Op: shardOp(r.Op), Q: r.Q, K: r.K, W: r.W, Radius: r.Radius}})
			if err != nil {
				t.Fatal(err)
			}
			b := bresps[0]
			resp = Response{Neighbors: b.Neighbors, Range: b.Range, Count: b.Count, Items: b.Items, Cost: b.Cost, Err: b.Err}
		} else {
			e.runOne(&r, &resp)
		}
	}
	return resp
}

// TestBatchEqualsSequential: batched responses are deeply equal to
// per-query answers on both engines (property test, cache disabled so
// every request computes).
func TestBatchEqualsSequential(t *testing.T) {
	d, local, sharded := testEngines(t, Config{Workers: 3})
	for _, tc := range []struct {
		name string
		e    *Executor
	}{{"local", local}, {"sharded", sharded}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(808))
			for round := 0; round < 8; round++ {
				reqs := randomRequests(rng, d, 1+rng.Intn(32))
				got, err := tc.e.Batch(context.Background(), reqs)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range reqs {
					want := sequential(t, tc.e, r)
					g := got[i]
					if tc.e.cluster == nil {
						// The local pool runs requests concurrently on one
						// shared tree whose access counters are global, so
						// per-request cost attribution interleaves (as for
						// any concurrent readers of one core.Server).
						// Results stay exact; compare those only.
						want.Cost, g.Cost = core.QueryCost{}, core.QueryCost{}
					}
					if !reflect.DeepEqual(want, g) {
						t.Fatalf("req %d (%+v): batched response differs from sequential\nwant %+v\ngot  %+v",
							i, r, want, g)
					}
				}
			}
		})
	}
}

// TestCacheHitNN: a second NN query inside the cached region is served
// from cache with zero cost; after Invalidate it recomputes.
func TestCacheHitNN(t *testing.T) {
	d, local, sharded := testEngines(t, Config{CacheSize: 256, Registry: obs.NewRegistry()})
	for _, tc := range []struct {
		name string
		e    *Executor
	}{{"local", local}, {"sharded", sharded}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			q := geom.Pt(0.5, 0.5)
			v1, cost1, hit, _, err := tc.e.NNCached(ctx, q, 3)
			if err != nil {
				t.Fatal(err)
			}
			if hit || cost1.ResultNA == 0 {
				t.Fatalf("first query must miss and pay accesses (hit=%v cost=%+v)", hit, cost1)
			}
			// Query again at the same point and at a point inside the
			// region: both must hit at zero cost with the same answer.
			for _, p := range []geom.Point{q, nudgeInside(v1, q, d.Universe)} {
				v2, cost2, hit, _, err := tc.e.NNCached(ctx, p, 3)
				if err != nil {
					t.Fatal(err)
				}
				if !hit {
					t.Fatalf("query at %v inside cached region must hit", p)
				}
				if cost2 != (core.QueryCost{}) {
					t.Fatalf("cache hit must cost zero accesses, got %+v", cost2)
				}
				if v2 != v1 {
					t.Fatal("cache hit must return the shared cached region")
				}
			}
			// A different k misses.
			if _, _, hit, _, err := tc.e.NNCached(ctx, q, 4); err != nil || hit {
				t.Fatalf("k mismatch must miss (hit=%v err=%v)", hit, err)
			}
			// Invalidation expires the region.
			tc.e.Invalidate()
			if _, _, hit, _, err := tc.e.NNCached(ctx, q, 3); err != nil || hit {
				t.Fatalf("query after Invalidate must miss (hit=%v err=%v)", hit, err)
			}
		})
	}
}

// nudgeInside returns a point near q still inside the validity region.
func nudgeInside(v *core.NNValidity, q geom.Point, u geom.Rect) geom.Point {
	step := u.Width() * 1e-4
	for _, p := range []geom.Point{
		geom.Pt(q.X+step, q.Y), geom.Pt(q.X, q.Y+step),
		geom.Pt(q.X-step, q.Y), geom.Pt(q.X, q.Y-step),
	} {
		if u.Contains(p) && v.Valid(p) {
			return p
		}
	}
	return q
}

// TestCacheHitWindow: same-extent window whose center stays inside the
// conservative rectangle is served from cache.
func TestCacheHitWindow(t *testing.T) {
	_, local, _ := testEngines(t, Config{CacheSize: 256})
	ctx := context.Background()
	w := geom.RectCenteredAt(geom.Pt(0.5, 0.5), 0.04, 0.03)
	wv1, _, hit, _, err := local.WindowCached(ctx, w)
	if err != nil || hit {
		t.Fatalf("first window query: hit=%v err=%v", hit, err)
	}
	wv2, cost2, hit, _, err := local.WindowCached(ctx, w)
	if err != nil || !hit || wv2 != wv1 {
		t.Fatalf("identical window query must hit the cache (hit=%v err=%v)", hit, err)
	}
	if cost2 != (core.QueryCost{}) {
		t.Fatalf("window cache hit must cost zero, got %+v", cost2)
	}
	// Different extents must miss even at the same focus.
	if _, _, hit, _, _ := local.WindowCached(ctx, geom.RectCenteredAt(geom.Pt(0.5, 0.5), 0.05, 0.03)); hit {
		t.Fatal("window with different extents must miss")
	}
}

// TestPutRefusedAfterWrite: a region computed before a write must not
// enter the cache (epoch guard).
func TestPutRefusedAfterWrite(t *testing.T) {
	d := dataset.Uniform(500, 42)
	c := NewCache(d.Universe, 64)
	srv := core.NewServer(d.Tree(), d.Universe)
	epoch0 := c.Epoch()
	v, _, err := srv.NNQuery(geom.Pt(0.5, 0.5), 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Invalidate() // a write landed while computing
	c.PutNN(epoch0, v)
	if got := c.GetNN(geom.Pt(0.5, 0.5), 2); got != nil {
		t.Fatal("stale-epoch region must not be cached")
	}
	// With an unchanged epoch the store lands.
	epoch1 := c.Epoch()
	c.PutNN(epoch1, v)
	if got := c.GetNN(geom.Pt(0.5, 0.5), 2); got != v {
		t.Fatal("fresh region must be cached")
	}
}

// TestCoalescing: followers of an in-flight computation share the
// leader's result without recomputing. The leader is held open
// manually, so the test is deterministic.
func TestCoalescing(t *testing.T) {
	_, local, _ := testEngines(t, Config{CacheSize: 64, Registry: obs.NewRegistry()})
	q := geom.Pt(0.25, 0.75)
	key := nnFlightKey(q, 2)
	f, leader := local.sf.join(key)
	if !leader {
		t.Fatal("first join must lead")
	}

	const followers = 4
	type res struct {
		v         *core.NNValidity
		coalesced bool
		err       error
	}
	results := make(chan res, followers)
	var started sync.WaitGroup
	started.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			started.Done()
			v, _, _, coalesced, err := local.NNCached(context.Background(), q, 2)
			results <- res{v, coalesced, err}
		}()
	}
	started.Wait()

	// Followers bump the coalesced counter after joining the flight and
	// before blocking on it; wait until all of them have joined, so none
	// can arrive after the flight completes and lead a fresh one.
	for local.met.coalesced.Value() != followers {
		runtime.Gosched()
	}

	// Resolve the flight with a manually computed answer.
	want, _, err := local.single.NNQuery(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.nn = want
	local.sf.complete(key, f)

	for i := 0; i < followers; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !r.coalesced {
			t.Fatal("follower must report coalesced")
		}
		if r.v != want {
			t.Fatal("follower must share the leader's result")
		}
	}
	if got := local.met.coalesced.Value(); got != followers {
		t.Fatalf("coalesced counter = %d, want %d", got, followers)
	}
}

// TestBatchDedup: identical requests within one batch execute once and
// share the result.
func TestBatchDedup(t *testing.T) {
	_, local, sharded := testEngines(t, Config{CacheSize: 64, Registry: obs.NewRegistry()})
	for _, tc := range []struct {
		name string
		e    *Executor
	}{{"local", local}, {"sharded", sharded}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			q := geom.Pt(0.31, 0.62)
			reqs := []Request{
				{Op: OpNN, Q: q, K: 2},
				{Op: OpNN, Q: q, K: 2},
				{Op: OpNN, Q: q, K: 2},
				{Op: OpCount, W: geom.RectCenteredAt(q, 0.2, 0.2)},
			}
			resps, err := tc.e.Batch(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			if resps[0].NN == nil || resps[0].Err != nil {
				t.Fatalf("leader response: %+v", resps[0])
			}
			for _, i := range []int{1, 2} {
				if !resps[i].Coalesced || resps[i].NN != resps[0].NN {
					t.Fatalf("duplicate %d must share the leader's region (resp %+v)", i, resps[i])
				}
				if resps[i].Cost != (core.QueryCost{}) {
					t.Fatalf("duplicate %d must cost zero, got %+v", i, resps[i].Cost)
				}
			}
			// A later batch over the same point hits the cache.
			resps, err = tc.e.Batch(context.Background(), reqs[:1])
			if err != nil {
				t.Fatal(err)
			}
			if !resps[0].CacheHit {
				t.Fatal("repeat batch must hit the validity cache")
			}
		})
	}
}

// TestCacheEviction: the per-shard LRU keeps at most its capacity.
func TestCacheEviction(t *testing.T) {
	d := dataset.Uniform(300, 43)
	c := NewCache(d.Universe, cacheShards) // one entry per shard
	srv := core.NewServer(d.Tree(), d.Universe)
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 4*cacheShards; i++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		if v, _, err := srv.NNQuery(q, 1); err == nil {
			c.PutNN(c.Epoch(), v)
		}
	}
	if got := c.Len(); got > cacheShards {
		t.Fatalf("cache holds %d entries, cap %d", got, cacheShards)
	}
}

// TestKNNServedFromNNCache: a kNN request with matching k is answered
// from a cached NN validity.
func TestKNNServedFromNNCache(t *testing.T) {
	_, local, _ := testEngines(t, Config{CacheSize: 64})
	ctx := context.Background()
	q := geom.Pt(0.4, 0.4)
	v, _, _, _, err := local.NNCached(ctx, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	resps, err := local.Batch(ctx, []Request{{Op: OpKNN, Q: q, K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].CacheHit {
		t.Fatal("kNN with matching k must hit the NN cache")
	}
	if !reflect.DeepEqual(resps[0].Neighbors, v.Neighbors) {
		t.Fatal("kNN cache hit must return the cached neighbors")
	}
	var _ []nn.Neighbor = resps[0].Neighbors
}

// TestShardedDeleteVsBatchRace exercises the cache epoch protocol the
// session prefetcher leans on: Batch queries race sharded Deletes, and
// once a Delete has completed (with its leading/trailing Invalidate
// bumps), no later Batch may serve the deleted item from the cache.
// Run with -race.
func TestShardedDeleteVsBatchRace(t *testing.T) {
	d := dataset.Uniform(3000, 53)
	cl, err := shard.NewCluster(d.Items, d.Universe, shard.Options{Shards: 4, Strategy: shard.Grid})
	if err != nil {
		t.Fatal(err)
	}
	e := New(nil, nil, cl, Config{CacheSize: 4096})
	ctx := context.Background()

	// The observed item: pinned probes at its position make it the
	// unambiguous 1-NN whenever present.
	x := d.Items[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Background batches hammering the cache across the whole universe.
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				reqs := randomRequests(rng, d, 16)
				if _, err := e.Batch(ctx, reqs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	mutate := func(insert bool) {
		e.Invalidate()
		defer e.Invalidate()
		if insert {
			if err := cl.Insert(x); err != nil {
				t.Fatal(err)
			}
			return
		}
		if !cl.Delete(x) {
			t.Fatal("observed item missing at delete")
		}
	}

	probe := []Request{{Op: OpNN, Q: x.P, K: 1}}
	for round := 0; round < 80; round++ {
		mutate(false) // delete X
		resps, err := e.Batch(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		if resps[0].Err != nil {
			t.Fatal(resps[0].Err)
		}
		if resps[0].NN.Neighbors[0].Item.ID == x.ID {
			t.Fatalf("round %d: deleted item served from cache (hit=%v)", round, resps[0].CacheHit)
		}
		mutate(true) // reinsert X
		resps, err = e.Batch(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		if resps[0].Err != nil {
			t.Fatal(resps[0].Err)
		}
		if resps[0].NN.Neighbors[0].Item.ID != x.ID {
			t.Fatalf("round %d: reinserted item invisible (hit=%v)", round, resps[0].CacheHit)
		}
	}
	close(stop)
	wg.Wait()
}
