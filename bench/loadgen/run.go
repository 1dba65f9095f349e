package loadgen

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"lbsq"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports. Metrics holds the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one; Info holds numbers that are printed but not gated.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]Metric  `json:"metrics"`
	Info      map[string]float64 `json:"info"`
	Notes     []string           `json:"notes,omitempty"`
}

// Options configures one run.
type Options struct {
	Seed    int64
	Seconds float64 // measuring time of the run, split over its phases
	Trace   bool
	Env     Env
	// Probes returns the layer-probe metrics of a traced run (the
	// lbsq-probes binary, run as a child); nil skips them.
	Probes func(ctx context.Context) (map[string]Metric, []Span, error)
	// TracePath receives the span tree of a traced run ("" skips it).
	TracePath string
	Log       io.Writer // progress, one line per step
}

// How Options.Seconds is spent. The phases do not run one after the other
// but as rounds of one slice each, so that each phase samples the whole
// length of the run: the box this runs on changes speed by a fifth for
// ten seconds to minutes at a time (two busy loops side by side show it),
// and a phase measured in one piece would report whichever state it
// happened to fall into. The warm-up is a fixed op count per workload, so
// that the first slice starts from the same server state on every run of
// a seed.
const (
	rounds      = 3
	openShare   = 0.6 // open slices, rounded down to whole windows
	closedShare = 0.3
	// A traced run spends its time on two open phases of equal length —
	// tracing off and on, in turns of one window so that the two see the
	// same state of the box — and on the layer probes.
	tracedRounds    = 9
	tracedOpenShare = 0.3

	setupRepeats = 3 // timed set-ups per untraced run; the median is reported
)

// slice returns the length of one of n slices of a phase that gets share
// of the run: a whole number of windows, at least one.
func slice(total, share float64, n int) time.Duration {
	d := seconds(total * share / float64(n)).Truncate(window)
	if d < window {
		d = window
	}
	return d
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// counters is a before/after reading of the servers' cumulative counts.
type counters struct {
	na  int64
	cpu float64
}

func readCounters(ctx context.Context, dep *Deployment, u lbsq.Rect) (counters, error) {
	na, err := dep.nodeAccesses(ctx, u)
	if err != nil {
		return counters{}, err
	}
	cpu, err := dep.cpuSeconds()
	return counters{na: na, cpu: cpu}, err
}

// run is the state the steps of one run share.
type run struct {
	spec     Spec
	opts     Options
	dep      *Deployment
	dr       *driver
	universe lbsq.Rect
	res      *Result
	// check verifies a phase's kept responses and books its failures.
	check func(name string, ph phase)
}

func (r *run) logf(format string, args ...interface{}) {
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, "[%s seed=%d] "+format+"\n", append([]interface{}{r.spec.Name, r.opts.Seed}, args...)...)
	}
}

// RunWorkload deploys s, drives it, verifies it and returns its metrics.
// Every server process it starts is gone when it returns.
func RunWorkload(ctx context.Context, s Spec, o Options) (res *Result, err error) {
	res = &Result{Workload: s.Name, Seed: o.Seed, Traced: o.Trace, Metrics: map[string]Metric{}, Info: map[string]float64{}}

	data := BuildDataset(s)
	dataFile, err := writeDataset(o.Env.WorkDir, data)
	if err != nil {
		return nil, err
	}
	oracle := NewOracle(data.Items, data.Universe)

	repeats := setupRepeats
	if o.Trace {
		repeats = 1
	}
	var dep *Deployment
	var setups []float64
	for i := 0; i < repeats; i++ {
		if dep != nil {
			dep.Kill()
		}
		dep, err = deploy(ctx, o.Env, s, dataFile, fmt.Sprintf("%s-setup%d", s.Name, i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, dep.SetupSeconds)
	}
	defer func() { dep.Kill() }()
	r := &run{spec: s, opts: o, dep: dep, universe: data.Universe, res: res}
	r.logf("set-up %.3fs (median of %d)", Median(setups), len(setups))

	src, err := NewSource(s, o.Seed, data)
	if err != nil {
		return nil, err
	}
	dr := &driver{src: src, seed: o.Seed, epoch: time.Now()}
	r.dr = dr
	for i := 0; i < 2; i++ {
		c := NewConn(dep.Front.Addr)
		defer c.Close()
		dr.ex = append(dr.ex, newExecutor(c, data.Universe))
	}
	if err := src.prepare(ctx, dr.ex); err != nil {
		return nil, err
	}

	var writes []writeRec
	applied := 0
	r.check = func(name string, ph phase) {
		writes = append(writes, ph.writes...)
		sort.SliceStable(writes[applied:], func(a, b int) bool { return writes[applied+a].recv < writes[applied+b].recv })
		checked, bad := oracle.verify(o.Seed, ph.samples, writes, &applied)
		res.Attempted += ph.ops
		res.Failed += ph.failed + len(bad)
		res.Info[name+".ops"] += float64(ph.ops)
		res.Info[name+".transport_failures"] += float64(ph.failed)
		res.Info[name+".oracle_checked"] += float64(checked)
		res.Info[name+".oracle_mismatches"] += float64(len(bad))
		res.Info["oracle.region_points_checked"] = float64(oracle.RegionPoints)
		if len(bad) > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %d oracle mismatches, first: %v", name, len(bad), bad[0]))
		}
		r.logf("%s: %d ops, %d failed, %d/%d oracle checks ok", name, ph.ops, ph.failed, checked-len(bad), checked)
	}

	warm := dr.closed(ctx, limit{ops: s.WarmOps})
	r.check("warmup", warm)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if o.Trace {
		err = r.traced(ctx)
	} else {
		err = r.measured(ctx)
		res.Metrics["setup_s"] = Metric{Median(setups), "s"}
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if s.Durable {
		// Apply whatever the verifier has not needed yet, then crash.
		for ; applied < len(writes); applied++ {
			if w := writes[applied]; w.insert {
				oracle.Insert(w.item)
			} else {
				oracle.Delete(w.item.ID)
			}
		}
		if err := restartCheck(ctx, s, o, dep, oracle, res); err != nil {
			return nil, err
		}
	}
	res.Info["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	// Transport errors, refusals and oracle mismatches alike.
	res.Correct = res.Failed == 0
	return res, nil
}

// measured is the untraced run: rounds of an open slice at the reference
// rate and a closed slice.
func (r *run) measured(ctx context.Context) error {
	s, o, dep, dr, res := r.spec, r.opts, r.dep, r.dr, r.res
	var open, closed phase
	var used counters // by the open slices
	for i := 0; i < rounds && ctx.Err() == nil; i++ {
		before, err := readCounters(ctx, dep, r.universe)
		if err != nil {
			return err
		}
		op := dr.open(ctx, s.RefRate, slice(o.Seconds, openShare, rounds), i, false)
		after, err := readCounters(ctx, dep, r.universe)
		if err != nil {
			return err
		}
		cl := dr.closed(ctx, limit{d: slice(o.Seconds, closedShare, rounds)})
		// Verifying between slices costs the servers nothing: they are
		// idle until the next slice starts.
		r.check("open", op)
		r.check("closed", cl)
		open, closed = join(open, op), join(closed, cl)
		used.na += after.na - before.na
		used.cpu += after.cpu - before.cpu
	}
	rss, err := dep.peakRSSMiB()
	if err != nil {
		return err
	}
	if len(open.lat) == 0 || len(closed.lat) == 0 {
		return fmt.Errorf("no op succeeded")
	}

	ops := float64(open.ops)
	p50s, p99s, rates := open.windowPercentiles(50), open.windowPercentiles(99), closed.windowRates()
	r.logf("open: per-window p50 %.3f ms", p50s)
	r.logf("open: per-window p99 %.3f ms", p99s)
	r.logf("closed: per-window rate %.0f ops/s", rates)
	res.Metrics["throughput_ops_s"] = Metric{Median(rates), "ops/s"}
	res.Metrics["lat_p50_ms"] = Metric{Median(p50s), "ms"}
	res.Metrics["lat_p99_ms"] = Metric{Median(p99s), "ms"}
	res.Metrics["wire_bytes_per_op"] = Metric{float64(open.wire) / ops, "B/op"}
	res.Metrics["node_accesses_per_op"] = Metric{float64(used.na) / ops, "NA/op"}
	res.Metrics["server_cpu_us_per_op"] = Metric{used.cpu * 1e6 / ops, "us/op"}
	res.Metrics["server_rss_mb"] = Metric{rss, "MiB"}

	// Printed, not gated: the whole phase, its disturbed windows and its
	// periodic stalls (checkpoints, collector cycles) included.
	res.Info["open.rate_ops_s"] = s.RefRate
	res.Info["open.whole_phase_lat_p50_ms"] = Percentile(open.lat, 50)
	res.Info["open.whole_phase_lat_p99_ms"] = Percentile(open.lat, 99)
	res.Info["open.whole_phase_lat_p999_ms"] = Percentile(open.lat, 99.9)
	res.Info["open.whole_phase_lat_max_ms"] = open.lat[len(open.lat)-1]
	res.Info["open.lat_samples"] = float64(len(open.lat))
	res.Info["open.send_lag_p50_ms"] = Percentile(open.lag, 50)
	res.Info["open.send_lag_p99_ms"] = Percentile(open.lag, 99)
	res.Info["closed.whole_phase_ops_s"] = float64(closed.ops-closed.failed) / closed.elapsed.Seconds()
	res.Info["closed.lat_p50_ms"] = Percentile(closed.lat, 50)
	return nil
}

// restartCheck is the durability check of rw_durable: SIGKILL, restart
// on the same directory, and compare count and sampled NN answers with
// the oracle of acknowledged writes. A process kill leaves the operating
// system's page cache intact, so this proves recovery from the files as
// the kernel holds them, not from the platters.
func restartCheck(ctx context.Context, s Spec, o Options, dep *Deployment, oracle *Oracle, res *Result) error {
	const probes = 200
	start := time.Now()
	if err := dep.restartFront(ctx, o.Env, s.Name, oracle.Len()); err != nil {
		res.Failed++
		res.Attempted++
		res.Notes = append(res.Notes, fmt.Sprintf("restart: %v", err))
		return nil
	}
	res.Info["restart.recover_s"] = time.Since(start).Seconds()
	c := NewConn(dep.Front.Addr)
	defer c.Close()
	e := newExecutor(c, oracle.universe)
	rng := stream(o.Seed, streamRestart, 0)
	bad := 0
	for i := 0; i < probes; i++ {
		q := op{kind: opNN, p: uniformPoint(rng, oracle.universe), k: 1}
		var at time.Time
		_, ok := e.run(ctx, &q, &at)
		if !ok || oracle.CheckNN(rng, e.lastBody(), q.p, 1) != nil {
			bad++
		}
	}
	res.Attempted += probes
	res.Failed += bad
	res.Info["restart.nn_checked"] = probes
	res.Info["restart.nn_mismatches"] = float64(bad)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"restart: SIGKILL then recovery to %d points, %d/%d NN answers match the oracle of acknowledged writes (the page cache survives a process kill)",
		oracle.Len(), probes-bad, probes))
	return nil
}
