package lbsq

import (
	"io"
	"math"
	"time"

	"lbsq/internal/obs"
)

// Re-exported observability types: DB.Metrics speaks in these.
type (
	// Metric is one metric series in a DB.Metrics snapshot.
	Metric = obs.Metric
	// MetricBucket is one cumulative histogram bucket of a Metric.
	MetricBucket = obs.Bucket
	// MetricKind discriminates counter, gauge and histogram metrics.
	MetricKind = obs.Kind
)

// Metric kinds.
const (
	MetricCounter   = obs.KindCounter
	MetricGauge     = obs.KindGauge
	MetricHistogram = obs.KindHistogram
)

// Operation names used as the Op field of QueryTrace and the op label
// of query metrics.
const (
	OpNN     = "nn"     // NN / NNCtx (k-NN with validity region)
	OpKNN    = "knn"    // KNearest (plain k-NN)
	OpWindow = "window" // Window / WindowAt
	OpRange  = "range"  // Range (location-based range query)
	OpRoute  = "route"  // RouteNN (continuous NN along a route)
	OpCount  = "count"  // Count (aggregate window count)
	OpSearch = "search" // RangeSearch (plain window enumeration)
)

var dbOps = []string{OpNN, OpKNN, OpWindow, OpRange, OpRoute, OpCount, OpSearch}

// QueryTrace describes one completed query, delivered to the TraceHook.
type QueryTrace struct {
	// Op is the operation (OpNN, OpWindow, ...).
	Op string
	// At is the query focus: the NN/kNN/range query point, the window
	// center, or the route start.
	At Point
	// K is the neighbor count of NN/kNN queries (zero otherwise).
	K int
	// Radius is the range-query radius (zero otherwise).
	Radius float64
	// Window is the query window of window/count/search queries (empty
	// otherwise).
	Window Rect
	// Duration is the query's wall-clock latency.
	Duration time.Duration
	// Cost holds the per-phase node and page accesses.
	Cost QueryCost
	// RegionArea is the validity-region area of NN and window queries;
	// NaN for operations without a region.
	RegionArea float64
	// ShardsTouched counts the shard-local tasks the query executed on a
	// sharded DB (a multi-phase query may task a shard more than once;
	// attribution is approximate when queries overlap). Always 1 on an
	// unsharded DB.
	ShardsTouched int
	// Sharded reports whether the DB runs as a shard cluster.
	Sharded bool
	// CacheHit reports that the answer was served by the validity
	// cache (zero node accesses).
	CacheHit bool
	// Err is the query's error, if any.
	Err error
}

// TraceHook observes completed queries. It is called synchronously,
// exactly once per query, after the query finishes and its metrics are
// recorded; keep it fast and do not call back into the DB from it.
type TraceHook func(QueryTrace)

// SetTraceHook installs (or, with nil, removes) the per-query trace
// hook. Safe to call concurrently with queries.
func (db *DB) SetTraceHook(h TraceHook) { db.hook.Store(h) }

// Metrics returns a point-in-time snapshot of every metric series the
// DB has registered, sorted by name then labels.
func (db *DB) Metrics() []Metric { return db.reg.Snapshot() }

// WriteMetrics writes the DB's metrics in Prometheus text exposition
// format (the payload of the server's /metrics endpoint).
func (db *DB) WriteMetrics(w io.Writer) error { return db.reg.WritePrometheus(w) }

// dbMetrics holds the DB facade's per-operation instruments. The shard
// cluster registers its own (fanout, pruning, task latency, queue
// depth) on the same registry.
type dbMetrics struct {
	queries   map[string]*obs.Counter
	errors    map[string]*obs.Counter
	latency   map[string]*obs.Histogram
	nodeAcc   map[string]*obs.Histogram
	pageAcc   map[string]*obs.Histogram
	areaRatio map[string]*obs.Histogram
	tpQueries *obs.Counter
	// checkpointDur is registered only on durable DBs.
	checkpointDur *obs.Histogram
}

// observeCheckpoint records a completed checkpoint's duration.
func (m *dbMetrics) observeCheckpoint(d time.Duration) {
	if m.checkpointDur != nil {
		m.checkpointDur.Observe(float64(d.Microseconds()))
	}
}

// newDBMetrics registers the facade instruments for db on reg.
func newDBMetrics(reg *obs.Registry, db *DB) *dbMetrics {
	m := &dbMetrics{
		queries:   make(map[string]*obs.Counter, len(dbOps)),
		errors:    make(map[string]*obs.Counter, len(dbOps)),
		latency:   make(map[string]*obs.Histogram, len(dbOps)),
		nodeAcc:   make(map[string]*obs.Histogram, len(dbOps)),
		pageAcc:   make(map[string]*obs.Histogram, len(dbOps)),
		areaRatio: make(map[string]*obs.Histogram, 2),
	}
	for _, op := range dbOps {
		l := obs.Labels{"op": op}
		m.queries[op] = reg.Counter("lbsq_queries_total", "Queries served, by operation.", l)
		m.errors[op] = reg.Counter("lbsq_query_errors_total", "Queries that returned an error, by operation.", l)
		m.latency[op] = reg.Histogram("lbsq_query_duration_us",
			"Query latency in microseconds, by operation.", l, obs.LatencyBucketsUS)
		m.nodeAcc[op] = reg.Histogram("lbsq_query_node_accesses",
			"R-tree node accesses per query, by operation.", l, obs.AccessBuckets)
		m.pageAcc[op] = reg.Histogram("lbsq_query_page_accesses",
			"Page accesses (buffer faults) per query, by operation.", l, obs.AccessBuckets)
	}
	for _, op := range []string{OpNN, OpWindow} {
		m.areaRatio[op] = reg.Histogram("lbsq_validity_area_ratio",
			"Validity-region area as a fraction of the universe, by operation.",
			obs.Labels{"op": op}, obs.AreaRatioBuckets)
	}
	m.tpQueries = reg.Counter("lbsq_tp_queries_total",
		"Time-parameterized probe queries issued by influence computation: only for region vertices the browse guard did not prove, and on nodes not owning the result.", nil)
	reg.GaugeFunc("lbsq_items", "Points currently stored.", nil,
		func() float64 { return float64(db.Len()) })
	if db.server != nil && db.server.Buffer != nil {
		reg.CounterFunc("lbsq_buffer_hits_total", "Page-buffer hits.", nil,
			func() float64 { return float64(db.server.Buffer.Hits()) })
		reg.CounterFunc("lbsq_buffer_misses_total", "Page-buffer misses (faults).", nil,
			func() float64 { return float64(db.server.Buffer.Faults()) })
	}
	if st := db.store; st != nil {
		reg.CounterFunc("lbsq_storage_wal_records_total",
			"Mutations write-ahead logged since open.", nil,
			func() float64 { return float64(st.Stats().WALRecords) })
		reg.CounterFunc("lbsq_storage_wal_bytes_total",
			"WAL bytes appended since open.", nil,
			func() float64 { return float64(st.Stats().WALBytes) })
		reg.CounterFunc("lbsq_storage_wal_fsyncs_total",
			"WAL fsyncs issued since open (group commit batches many writes per fsync).", nil,
			func() float64 { return float64(st.Stats().WALFsyncs) })
		reg.CounterFunc("lbsq_storage_checkpoints_total",
			"Checkpoints taken since open.", nil,
			func() float64 { return float64(st.Stats().Checkpoints) })
		reg.GaugeFunc("lbsq_storage_wal_size_bytes",
			"Live WAL file size; checkpoints truncate it.", nil,
			func() float64 { return float64(st.Stats().WALSizeBytes) })
		reg.GaugeFunc("lbsq_storage_generation",
			"Current checkpoint generation.", nil,
			func() float64 { return float64(st.Stats().Generation) })
		reg.GaugeFunc("lbsq_storage_recovery_replayed_records",
			"WAL records replayed when the store was opened.", nil,
			func() float64 { return float64(st.Stats().RecoveredRecords) })
		m.checkpointDur = reg.Histogram("lbsq_storage_checkpoint_duration_us",
			"Checkpoint duration in microseconds.", nil, obs.LatencyBucketsUS)
	}
	return m
}

// begin snapshots the query start for finish.
func (db *DB) begin() (time.Time, int64) {
	if db.cluster != nil {
		return time.Now(), db.cluster.TasksStarted()
	}
	return time.Now(), 0
}

// finish stamps duration and shard attribution onto the trace, records
// the query's metrics, and fires the trace hook exactly once.
func (db *DB) finish(t *QueryTrace, start time.Time, tasks0 int64) {
	t.Duration = time.Since(start)
	if db.cluster != nil {
		t.Sharded = true
		t.ShardsTouched = int(db.cluster.TasksStarted() - tasks0)
	} else {
		t.ShardsTouched = 1
	}
	m := db.met
	m.queries[t.Op].Inc()
	if t.Err != nil {
		m.errors[t.Op].Inc()
	}
	m.latency[t.Op].Observe(float64(t.Duration.Microseconds()))
	m.nodeAcc[t.Op].Observe(float64(t.Cost.Total()))
	m.pageAcc[t.Op].Observe(float64(t.Cost.TotalPA()))
	if t.Cost.TPQueries > 0 {
		m.tpQueries.Add(int64(t.Cost.TPQueries))
	}
	if h, ok := m.areaRatio[t.Op]; ok && t.Err == nil && !math.IsNaN(t.RegionArea) {
		if ua := db.Universe().Area(); ua > 0 {
			h.Observe(t.RegionArea / ua)
		}
	}
	if h, ok := db.hook.Load().(TraceHook); ok && h != nil {
		h(*t)
	}
}
