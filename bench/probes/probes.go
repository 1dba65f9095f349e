// Package probes times calls into each module's public functions from
// outside the program: one probe per layer of the served path, on a
// shared fixture (100k uniform and 100k GR-like points, seeded queries),
// with paired variants of the same primitive — pointer tree against flat
// arena — side by side on the same queries. Every timing is the median
// of per-call times; every count comes from a single-threaded loop and
// repeats exactly for a seed.
//
// No LRU page buffer is attached to the probed indexes: the probes time
// the layers themselves, and the buffer's bookkeeping is the served
// path's (it shows in the end-to-end numbers).
package probes

import (
	"context"
	"io"
	"math/rand"
	"time"

	"lbsq/bench/loadgen"
	"lbsq/internal/core"
	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/rtree"
	"lbsq/internal/rtree/arena"
)

// Probe sizes. Cheap primitives get the full query set; the expensive
// ones a prefix of it, so that the whole suite stays within a few
// seconds of a traced run.
const (
	fixtureN    = 100_000
	queries     = 2000
	fewQueries  = 500 // multi-process or fsync-bound probes
	probeWindow = 0.01
	spanQueries = 200 // probe queries recorded as span trees
)

// timings collects per-call times in nanoseconds.
type timings []float64

// add times fn and books elapsed ÷ calls: calls > 1 is for primitives so
// fast that the clock itself would dominate a single call.
func (t *timings) add(calls int, fn func()) {
	start := time.Now()
	fn()
	*t = append(*t, float64(time.Since(start).Nanoseconds())/float64(calls))
}

func (t timings) median() float64 { return loadgen.Median(t) }

// closing closes c when a probe returns; a failure to close becomes the
// probe's error unless it already has one.
func closing(c io.Closer, err *error) {
	if cerr := c.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// report is the probe suite's output.
type report struct {
	metrics map[string]loadgen.Metric
	spans   []loadgen.Span
}

func (r *report) ns(name string, t timings)   { r.set(name, t.median(), "ns") }
func (r *report) msOf(name string, t timings) { r.set(name, t.median()/1e6, "ms") }
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = loadgen.Metric{Value: v, Unit: unit}
}

// fixture is what every probe shares.
type fixture struct {
	seed    int64
	work    string // scratch directory for the storage probes
	uni, gr *dataset.Dataset
	tree    *rtree.Tree
	arena   *arena.Arena
	srv     *core.Server // pointer layout
	srvA    *core.Server // arena layout over an identical tree
	q       []geom.Point // uniform queries
	grQ     []geom.Point // GR-like queries, drawn from the data distribution

	nn1, nn10 []*core.NNValidity     // answers at q, reused by the replaying probes
	win       []*core.WindowValidity // window answers at q
}

func newFixture(seed int64, work string) (*fixture, error) {
	f := &fixture{seed: seed, work: work, uni: dataset.Uniform(fixtureN, seed), gr: dataset.GRLike(fixtureN, seed)}
	f.tree = rtree.BulkLoad(append([]rtree.Item(nil), f.uni.Items...), rtree.Options{}, 0)
	f.arena = arena.Freeze(f.tree)
	f.srv = core.NewServer(f.tree, f.uni.Universe)
	f.srvA = core.NewServer(rtree.BulkLoad(append([]rtree.Item(nil), f.uni.Items...), rtree.Options{}, 0), f.uni.Universe)
	f.srvA.UseArena()
	rng := rand.New(rand.NewSource(seed*613 + 1))
	for i := 0; i < queries; i++ {
		f.q = append(f.q, geom.Pt(rng.Float64(), rng.Float64()))
	}
	f.grQ = dataset.QueryPoints(f.gr, queries, seed*613+2)
	for _, q := range f.q {
		v1, _, err := f.srv.NNQuery(q, 1)
		if err != nil {
			return nil, err
		}
		v10, _, err := f.srv.NNQuery(q, 10)
		if err != nil {
			return nil, err
		}
		wv, _ := f.srv.WindowQueryAt(q, probeWindow, probeWindow)
		f.nn1, f.nn10, f.win = append(f.nn1, v1), append(f.nn10, v10), append(f.win, wv)
	}
	return f, nil
}

// Run executes every layer probe and returns the per-layer metrics they
// produce plus the span trees of the first probe queries.
func Run(ctx context.Context, seed int64, work string) (map[string]loadgen.Metric, []loadgen.Span, error) {
	f, err := newFixture(seed, work)
	if err != nil {
		return nil, nil, err
	}
	r := &report{metrics: map[string]loadgen.Metric{}}
	for _, probe := range []func(context.Context, *fixture, *report) error{
		probeGeom, probeRtree, probeNN, probeTP, probeCore, probeWire, probeQexec,
		probeSession, probeShard, probeDist, probeDurable, probeHTTP, probeObs, probeSpans,
	} {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := probe(ctx, f, r); err != nil {
			return nil, nil, err
		}
	}
	return r.metrics, r.spans, nil
}
