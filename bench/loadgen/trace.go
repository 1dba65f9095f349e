package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"lbsq/internal/geom"
)

// Span is one node of a span tree: a named interval caused by Parent
// (0 = root). Spans of one op or probe query share Op.
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// Estimate marks a span that was not timed in place but replayed
	// separately (spans inside the program are a later change).
	Estimate bool `json:"estimate,omitempty"`
}

// traceFileOps caps how many ops' spans go to the trace file; the
// per-layer aggregates are computed over all of them.
const traceFileOps = 5000

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// opSpans expands the four instants of traced ops into span trees.
func opSpans(spans []opSpan) []Span {
	if len(spans) > traceFileOps {
		spans = spans[:traceFileOps]
	}
	out := make([]Span, 0, 4*len(spans))
	for i, s := range spans {
		root := len(out) + 1
		out = append(out,
			Span{ID: root, Op: i, Name: "op", StartUS: us(s.due), EndUS: us(s.done)},
			Span{ID: root + 1, Parent: root, Op: i, Name: "loadgen.wait", StartUS: us(s.due), EndUS: us(s.sent)},
			Span{ID: root + 2, Parent: root, Op: i, Name: "http.roundtrip", StartUS: us(s.sent), EndUS: us(s.recv)},
			Span{ID: root + 3, Parent: root, Op: i, Name: "loadgen.decode", StartUS: us(s.recv), EndUS: us(s.done)},
		)
	}
	return out
}

// traced is the traced run: rounds of two open slices (tracing off, then
// on), the servers' own metrics scraped around each traced one, and the
// layer probes. It fills res.Metrics with every per-layer metric.
func (r *run) traced(ctx context.Context) error {
	s, o, dep, dr, res := r.spec, r.opts, r.dep, r.dr, r.res
	d := slice(o.Seconds, tracedOpenShare, tracedRounds)
	var plain, traced phase
	// The delta of every process's /v1/metrics over the traced slices,
	// summed: the coordinator exports only lbsq_dist_* and the data
	// processes everything else, so no family is counted twice.
	scraped := Scrape{}
	for i := 0; i < tracedRounds && ctx.Err() == nil; i++ {
		pl := dr.open(ctx, s.RefRate, d, i, false)
		before, err := scrapeProcs(ctx, dep.All)
		if err != nil {
			return err
		}
		// The same arrival times as the untraced slice, other ops.
		tr := dr.open(ctx, s.RefRate, d, i, true)
		after, err := scrapeProcs(ctx, dep.All)
		if err != nil {
			return err
		}
		r.check("open_untraced", pl)
		r.check("open_traced", tr)
		plain, traced = join(plain, pl), join(traced, tr)
		scraped.Add(after.Sub(before))
	}
	if len(plain.lat) == 0 || len(traced.lat) == 0 {
		return fmt.Errorf("no op succeeded")
	}

	ops := float64(traced.ops)
	perOp := func(x float64) float64 { return x / ops }
	ratio := func(num, den float64) float64 {
		if geom.ExactZero(den) {
			return 0
		}
		return num / den
	}
	var wait, trip, decode, whole float64
	for _, sp := range traced.spans {
		wait += us(sp.sent - sp.due)
		trip += us(sp.recv - sp.sent)
		decode += us(sp.done - sp.recv)
		whole += us(sp.done - sp.due)
	}
	n := float64(len(traced.spans))
	tripUS := ratio(trip, n)

	// The handler histogram exists on every unsharded server; on the
	// cluster it is the data nodes' /v1/shard handlers (the coordinator's
	// front-end is not instrumented), and their time per front-end op.
	handlerUS := perOp(scraped.Sum("lbsq_http_request_duration_us_sum"))
	queryUS := perOp(scraped.Sum("lbsq_query_duration_us_sum"))
	moves := scraped.Sum("lbsq_session_moves_total")
	hits := scraped.Sum("lbsq_cache_hits_total")
	writes := float64(len(traced.writes))

	m := res.Metrics
	m["loadgen.send_lag_p99_ms"] = Metric{Percentile(traced.lag, 99), "ms"}
	tracedP50, plainP50 := Median(traced.windowPercentiles(50)), Median(plain.windowPercentiles(50))
	m["loadgen.trace_overhead_ratio"] = Metric{ratio(tracedP50, plainP50), "ratio"}
	m["http.handler_us_per_op"] = Metric{handlerUS, "us/op"}
	m["http.self_us_per_op"] = Metric{handlerUS - queryUS, "us/op"}
	m["http.net_self_us_per_op"] = Metric{tripUS - handlerUS, "us/op"}
	m["core.query_us_per_op"] = Metric{queryUS, "us/op"}
	m["tp.probes_per_op"] = Metric{perOp(scraped.Sum("lbsq_tp_queries_total")), "count/op"}
	m["qexec.cache_hit_ratio"] = Metric{ratio(hits, hits+scraped.Sum("lbsq_cache_misses_total")), "ratio"}
	m["session.region_hit_ratio"] = Metric{ratio(scraped.Sum("lbsq_session_moves_total", `result="hit"`), moves), "ratio"}
	m["session.prefetch_ratio"] = Metric{ratio(scraped.Sum("lbsq_session_moves_total", `result="prefetch"`), moves), "ratio"}
	m["session.invalidations_per_write"] = Metric{ratio(scraped.Sum("lbsq_session_invalidations_total"), writes), "count/op"}
	m["dist.rpcs_per_op"] = Metric{perOp(scraped.Sum("lbsq_dist_node_requests_total")), "count/op"}
	m["dist.node_us_per_rpc"] = Metric{ratio(scraped.Sum("lbsq_dist_node_latency_us_sum"), scraped.Sum("lbsq_dist_node_latency_us_count")), "us"}
	m["wal.fsyncs_per_write"] = Metric{ratio(scraped.Sum("lbsq_storage_wal_fsyncs_total"), writes), "count/op"}
	m["storage.wal_bytes_per_write"] = Metric{ratio(scraped.Sum("lbsq_storage_wal_bytes_total"), writes), "B/op"}

	res.Info["trace.op_us"] = ratio(whole, n)
	res.Info["trace.loadgen_wait_us"] = ratio(wait, n)
	res.Info["trace.http_roundtrip_us"] = tripUS
	res.Info["trace.loadgen_decode_us"] = ratio(decode, n)
	res.Info["trace.untraced_lat_p50_ms"] = plainP50
	res.Info["trace.traced_lat_p50_ms"] = tracedP50
	res.Info["trace.storage_checkpoints"] = scraped.Sum("lbsq_storage_checkpoints_total")

	spans := opSpans(traced.spans)
	if o.Probes != nil {
		probeMetrics, probeSpans, err := o.Probes(ctx)
		if err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		for name, v := range probeMetrics {
			m[name] = v
		}
		// Probe spans keep their own ids; shift them past the op spans.
		base := len(spans)
		for _, sp := range probeSpans {
			sp.ID += base
			if sp.Parent != 0 {
				sp.Parent += base
			}
			spans = append(spans, sp)
		}
	}
	if o.TracePath != "" {
		if err := writeTrace(o.TracePath, s.Name, o.Seed, spans); err != nil {
			return err
		}
	}
	return nil
}

func writeTrace(path, workload string, seed int64, spans []Span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []Span `json:"spans"`
	}{workload, seed,
		"served ops: op = loadgen.wait + http.roundtrip + loadgen.decode, times in µs from the traced phase's start; " +
			"probe queries: query ⊃ nn.KNearestInto · core.InfluenceSetKNN ⊃ (tp, geom estimates) · core.EncodeNN, times in µs from the probe's start",
		spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
