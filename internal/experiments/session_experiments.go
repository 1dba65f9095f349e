package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"lbsq/internal/core"
	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/qexec"
	"lbsq/internal/session"
	"lbsq/internal/trajectory"
)

// sessionSampleCap bounds how many clients of a fleet are actually
// driven; larger fleets are sampled and their query counts
// extrapolated linearly (per-client work is independent, so the
// estimate is unbiased; latency percentiles are reported unscaled).
const sessionSampleCap = 2000

// naiveSampleCap is the tighter sample for the naive baseline: it runs
// one full query per tick per client, so a small sample already pins
// its (perfectly linear) cost.
const naiveSampleCap = 256

// sessionK is the continuous query's k.
const sessionK = 4

// Sessions replays trajectory fleets of moving clients in five
// protocols and compares the server work they induce:
//
//	naive          every position update runs a fresh k-NN query
//	client-cached  the paper's protocol: the client re-queries only
//	               after leaving its cached validity region
//	mlvoronoi      the client caches the exact order-k region of the
//	               precomputed multi-layer Voronoi diagram
//	session-tpknn  server-tracked continuous sessions with
//	               trajectory-aware prefetch (internal/session)
//	session-insq   sessions with the INSQ strategy: region exits
//	               repair the influential neighbor set instead of
//	               re-querying the index
//
// One table: fleet size, mode, full queries issued, index node
// accesses per move, node accesses per region rebuild (requery or
// repair), region-hit rate, prefetch hits, move latency percentiles.
func Sessions(cfg Config) []Table {
	n := 20_000
	fleets := []int{500, 2_000}
	steps := 10
	if cfg.Full {
		n = 100_000
		fleets = []int{10_000, 100_000, 1_000_000}
		steps = 25
	}
	d := dataset.Uniform(n, cfg.Seed)
	srv := buildServer(d, cfg, false)
	mlv := core.NewMLVoronoiServer(srv.Index, d.Universe)
	var mu sync.RWMutex
	exec := qexec.New(srv, &mu, nil, qexec.Config{Registry: cfg.Obs})

	t := Table{
		Title: fmt.Sprintf("Continuous-query sessions: %s (%d points, %d steps/client, fleets >%d clients sampled)",
			d.Name, n, steps, sessionSampleCap),
		Columns: []string{"clients", "mode", "queries", "NA/move", "NA/rebuild", "hit rate", "pf hits", "p50", "p99", "pf issued/waste"},
	}
	for _, fleet := range fleets {
		sample := fleet
		if sample > sessionSampleCap {
			sample = sessionSampleCap
		}
		paths := make([][]geom.Point, sample)
		for i := range paths {
			paths[i] = trajectory.Waypoints(d.Universe, trajectory.Config{
				Step: 0.003, Jitter: 0.2, Steps: steps, Seed: cfg.Seed + int64(i),
			})
		}
		for _, mode := range []string{"naive", "client-cached", "mlvoronoi", "session-tpknn", "session-insq"} {
			modePaths := paths
			if mode == "naive" && len(modePaths) > naiveSampleCap {
				modePaths = modePaths[:naiveSampleCap]
			}
			scale := float64(fleet) / float64(len(modePaths))
			r := replayFleet(srv, mlv, exec, d.Universe, modePaths, mode, cfg)
			naPerRebuild := 0.0
			if r.rebuilds > 0 {
				naPerRebuild = float64(r.nodeAccesses) / float64(r.rebuilds)
			}
			t.Rows = append(t.Rows, []string{
				fmtN(fleet), mode,
				fmt.Sprintf("%.0f", float64(r.queries)*scale),
				fmt.Sprintf("%.2f", float64(r.nodeAccesses)/float64(r.moves)),
				fmt.Sprintf("%.2f", naPerRebuild),
				fmt.Sprintf("%.0f%%", 100*float64(r.hits)/float64(r.moves)),
				fmt.Sprintf("%.0f", float64(r.prefetchHits)*scale),
				r.pct(0.50).Round(time.Microsecond).String(),
				r.pct(0.99).Round(time.Microsecond).String(),
				fmt.Sprintf("%.0f/%.0f", float64(r.pfIssued)*scale, float64(r.pfWaste)*scale),
			})
		}
	}
	return []Table{t}
}

// fleetResult aggregates one replay mode.
type fleetResult struct {
	moves        int
	queries      int // full index queries issued
	rebuilds     int // validity-region rebuilds: requeries plus INSQ repairs
	nodeAccesses int64
	hits         int // moves answered without a query (region/cache hit)
	prefetchHits int
	// pfIssued/pfWaste count prefetches started and discarded unused;
	// both depend on the prefetcher's timing.
	pfIssued, pfWaste int64
	lat               []time.Duration
}

func (r *fleetResult) observe(d time.Duration) { r.lat = append(r.lat, d) }

func (r *fleetResult) pct(p float64) time.Duration {
	if len(r.lat) == 0 {
		return 0
	}
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	return r.lat[int(p*float64(len(r.lat)-1))]
}

// replayFleet drives every sampled client along its trajectory in the
// given protocol. Replay is step-major (all clients advance one tick,
// then the next), matching how a fleet's updates interleave at a
// server and giving the session prefetcher the same between-update
// window it has in production.
func replayFleet(srv *core.Server, mlv *core.MLVoronoiServer, exec *qexec.Executor, universe geom.Rect, paths [][]geom.Point, mode string, cfg Config) fleetResult {
	var r fleetResult
	switch mode {
	case "naive":
		for step := 0; len(paths) > 0 && step < len(paths[0]); step++ {
			for _, path := range paths {
				start := time.Now()
				_, cost, err := srv.NNQuery(path[step], sessionK)
				r.observe(time.Since(start))
				if err != nil {
					continue
				}
				r.moves++
				r.queries++
				r.rebuilds++
				r.nodeAccesses += int64(cost.ResultNA + cost.InfNA)
			}
		}
	case "client-cached":
		clients := make([]*core.NNClient, len(paths))
		for i := range clients {
			clients[i] = core.NewNNClient(srv, sessionK)
		}
		for step := 0; len(paths) > 0 && step < len(paths[0]); step++ {
			for i, path := range paths {
				start := time.Now()
				_, err := clients[i].At(path[step])
				r.observe(time.Since(start))
				if err != nil {
					continue
				}
				r.moves++
			}
		}
		for _, c := range clients {
			r.queries += c.Stats.ServerQueries
			r.rebuilds += c.Stats.ServerQueries
			r.hits += c.Stats.CacheHits
		}
		// NNClient does not expose per-query costs; approximate node
		// accesses with a fresh probe per issued query is not worth a
		// second replay — report the query count and leave NA to the
		// modes that measure it exactly.
	case "mlvoronoi":
		cached := make([]*core.MLVoronoiResponse, len(paths))
		for step := 0; len(paths) > 0 && step < len(paths[0]); step++ {
			for i, path := range paths {
				p := path[step]
				start := time.Now()
				if c := cached[i]; c != nil && !c.Region.IsEmpty() && c.Region.Contains(p) {
					r.observe(time.Since(start))
					r.moves++
					r.hits++
					continue
				}
				res, cost, err := mlv.Query(p, sessionK)
				r.observe(time.Since(start))
				if err != nil {
					continue
				}
				cached[i] = res
				r.moves++
				r.queries++
				r.rebuilds++
				r.nodeAccesses += int64(cost.ResultNA + cost.InfNA)
			}
		}
	case "session-tpknn", "session-insq":
		strategy := session.StrategyTPKNN
		if mode == "session-insq" {
			strategy = session.StrategyINSQ
		}
		m := session.NewManager(exec, universe, session.Options{
			PrefetchWorkers: 4, Registry: cfg.Obs, Strategy: strategy,
		})
		issued0, waste0 := m.PrefetchCounts()
		ctx := context.Background()
		ids := make([]uint64, len(paths))
		for i, path := range paths {
			s, res, err := m.OpenNN(ctx, path[0], sessionK)
			if err != nil {
				panic(err)
			}
			ids[i] = s.ID()
			r.queries++
			r.rebuilds++
			r.nodeAccesses += int64(res.Cost.ResultNA + res.Cost.InfNA)
		}
		for step := 1; len(paths) > 0 && step < len(paths[0]); step++ {
			for i, path := range paths {
				start := time.Now()
				res, err := m.Move(ctx, ids[i], path[step])
				r.observe(time.Since(start))
				if err != nil {
					continue
				}
				r.moves++
				r.nodeAccesses += int64(res.Cost.ResultNA + res.Cost.InfNA)
				switch {
				case res.Hit:
					r.hits++
				case res.Prefetched:
					// The detached prefetcher issued this index query
					// (its node accesses are charged to no move).
					r.prefetchHits++
					r.queries++
					r.rebuilds++
				case res.Repaired:
					// An INSQ repair re-derives the validity region from
					// the influential set with zero index node accesses.
					r.rebuilds++
				default:
					r.queries++
					r.rebuilds++
				}
			}
		}
		issued, waste := m.PrefetchCounts()
		r.pfIssued, r.pfWaste = issued-issued0, waste-waste0
		for _, id := range ids {
			// Drop the fleet so the next mode starts clean; errors are
			// impossible for ids we just issued.
			m.Close(id)
		}
	}
	return r
}
