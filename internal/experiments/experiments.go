// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6, Figs. 22–35) plus the client-savings motivation
// experiment. Each experiment builds its datasets, runs the 500-query
// workloads (distribution conforming to the data), and prints the same
// series the paper plots: actual vs estimated validity-region areas,
// influence-set sizes, and node/page accesses split by query phase.
//
// Scales default to laptop-friendly cardinalities; Config.Full selects
// the paper's full ranges (up to 1,000k points).
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"

	"lbsq/internal/core"
	"lbsq/internal/costmodel"
	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/histogram"
	"lbsq/internal/obs"
	"lbsq/internal/rtree"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Full selects paper-scale cardinalities (up to 1,000k points);
	// otherwise reduced ranges that finish in seconds are used.
	Full bool
	// Queries per workload; the paper uses 500. Zero selects 500 when
	// Full, 200 otherwise.
	Queries int
	// Seed drives all dataset and workload generation.
	Seed int64
	// BufferFraction for the page-access experiments (paper: 0.10).
	BufferFraction float64
	// Shards, when > 1, restricts the shard-scaling experiment to
	// comparing that shard count against the single server; zero runs
	// the full 1/2/4/8 sweep.
	Shards int
	// Obs, when non-nil, receives the metrics of every shard cluster the
	// experiments build, so drivers can report instrument summaries
	// alongside the tables.
	Obs *obs.Registry
}

func (c Config) queries() int {
	if c.Queries > 0 {
		return c.Queries
	}
	if c.Full {
		return 500
	}
	return 200
}

func (c Config) buffer() float64 {
	if c.BufferFraction > 0 {
		return c.BufferFraction
	}
	return 0.10
}

// cardinalities is the N axis of Figs. 22a/24a/25a/27/29a/31a/34.
func (c Config) cardinalities() []int {
	if c.Full {
		return []int{10_000, 30_000, 100_000, 300_000, 1_000_000}
	}
	return []int{10_000, 30_000, 100_000}
}

// fixedN is the cardinality used when k or qs varies.
func (c Config) fixedN() int { return 100_000 }

// ks is the k axis of Figs. 22b/23/24b/25b/26/28.
func (c Config) ks() []int { return []int{1, 3, 10, 30, 100} }

// qsFractions is the window-area axis (fraction of the universe) of
// Figs. 29b/31b: 0.01% … 10%.
func (c Config) qsFractions() []float64 { return []float64{0.0001, 0.001, 0.01, 0.1} }

// qsRealKM2 is the window-area axis for the real datasets (km²),
// Figs. 30/32/35.
func (c Config) qsRealKM2() []float64 { return []float64{100, 300, 1000, 3000, 10000} }

// grN returns the GR-like cardinality (always the paper's 23,268 — it
// is small enough even for quick runs).
func (c Config) grN() int { return dataset.GRCardinality }

// naN returns the NA-like cardinality.
func (c Config) naN() int {
	if c.Full {
		return dataset.NACardinality
	}
	return 120_000
}

// Table is one printed result series.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	line := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		line[i] = pad(c, widths[i])
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(line, "  "))
	for _, row := range t.Rows {
		for i, cell := range row {
			line[i] = pad(cell, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(line[:len(row)], "  "))
	}
	fmt.Fprintln(w)
}

// Fcsv renders the table as CSV (title as a comment line).
func (t *Table) Fcsv(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Experiment regenerates one or more figures.
type Experiment struct {
	ID     string // e.g. "22a"
	Figure string // description of the paper figure(s)
	Run    func(Config) []Table
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"22a", "Fig. 22a: area of V(q) vs N (uniform, k=1)", Fig22a},
		{"22b", "Fig. 22b: area of V(q) vs k (uniform, N=100k)", Fig22b},
		{"23", "Fig. 23: area of V(q) vs k (GR-like, NA-like)", Fig23},
		{"24", "Fig. 24: edges of V(q) vs N and vs k (uniform)", Fig24},
		{"25", "Fig. 25: |Sinf| vs N and vs k (uniform)", Fig25},
		{"26", "Fig. 26: |Sinf| vs k (GR-like, NA-like)", Fig26},
		{"27", "Fig. 27: NN query cost NA/PA vs N (uniform, k=1)", Fig27},
		{"28", "Fig. 28: NN query cost NA/PA vs k (GR-like, NA-like)", Fig28},
		{"29", "Fig. 29: window V(q) area vs N and vs qs (uniform)", Fig29},
		{"30", "Fig. 30: window V(q) area vs qs (GR-like, NA-like)", Fig30},
		{"31", "Fig. 31: window |Sinf| vs N and vs qs (uniform)", Fig31},
		{"32", "Fig. 32: window |Sinf| vs qs (GR-like, NA-like)", Fig32},
		{"34", "Fig. 34: window query cost NA/PA vs N (uniform)", Fig34},
		{"35", "Fig. 35: window query cost PA vs qs (GR-like, NA-like)", Fig35},
		{"savings", "Motivation: server queries saved vs baselines", ClientSavings},
		{"range", "Extension (Sec. 7 future work): range-query validity regions", RangeExtension},
		{"delta", "Extension (Sec. 7 future work): incremental result transfer", DeltaExtension},
		{"ablation", "Ablations: design choices quantified", Ablations},
		{"updates", "Update cost: on-the-fly regions vs precomputed Voronoi; window-client savings", Updates},
		{"semcache", "Extension: semantic cache of past validity regions", SemanticCache},
		{"perf", "Engineering: query latency percentiles", Perf},
		{"shards", "Engineering: sharded scatter-gather throughput scaling", ShardScaling},
		{"batch", "Engineering: batched execution vs sequential fan-out", BatchThroughput},
		{"cache", "Engineering: server-side validity-region cache", CacheEffect},
		{"sessions", "Engineering: continuous-query sessions vs naive and client-cached fleets", Sessions},
		{"dist", "Engineering: networked coordinator — scatter overhead and hedged tail rescue", DistScatter},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, printing tables to w.
func RunAll(cfg Config, w io.Writer) {
	for _, e := range All() {
		fmt.Fprintf(w, "=== %s ===\n", e.Figure)
		for _, t := range e.Run(cfg) {
			t.Fprint(w)
		}
	}
}

// --- shared runners -----------------------------------------------------

// nnAgg aggregates per-query NN metrics over a workload.
type nnAgg struct {
	Area, Edges, Sinf, Pairs   float64
	ResNA, InfNA, ResPA, InfPA float64
	TPQueries                  float64
	EstArea                    float64 // histogram/density model estimate
	N                          int
}

// runNN executes a k-NN workload on the server and aggregates metrics.
// It runs the paper's algorithm (Server.NNQueryTP), so the TP probe
// counts and influence-phase costs are the ones Figs. 25–28 report.
// If hist is non-nil the per-query estimated area uses its local
// density; otherwise density is uniform (n / universe area).
func runNN(s *core.Server, queries []geom.Point, k int, hist *histogram.Histogram, estimate func(density float64, k int) float64) nnAgg {
	var agg nnAgg
	uniArea := s.Universe.Area()
	n := s.Tree.Len()
	for _, q := range queries {
		v, cost, err := s.NNQueryTP(q, k)
		if err != nil {
			continue
		}
		agg.N++
		agg.Area += v.Region.Area()
		agg.Edges += float64(v.Region.Edges())
		agg.Sinf += float64(len(v.Influence))
		agg.Pairs += float64(len(v.Pairs))
		agg.ResNA += float64(cost.ResultNA)
		agg.InfNA += float64(cost.InfNA)
		agg.ResPA += float64(cost.ResultPA)
		agg.InfPA += float64(cost.InfPA)
		agg.TPQueries += float64(cost.TPQueries)
		density := float64(n) / uniArea
		if hist != nil {
			density = hist.DensityForNN(q, k)
		}
		agg.EstArea += estimate(density, k)
	}
	if agg.N > 0 {
		f := float64(agg.N)
		agg.Area /= f
		agg.Edges /= f
		agg.Sinf /= f
		agg.Pairs /= f
		agg.ResNA /= f
		agg.InfNA /= f
		agg.ResPA /= f
		agg.InfPA /= f
		agg.TPQueries /= f
		agg.EstArea /= f
	}
	return agg
}

// winAgg aggregates per-query window metrics over a workload.
type winAgg struct {
	Area, Inner, Outer         float64
	ResNA, InfNA, ResPA, InfPA float64
	EstArea                    float64
	N                          int
}

func runWindow(s *core.Server, queries []geom.Point, qx, qy float64, hist *histogram.Histogram, estimate func(density, qx, qy float64) float64) winAgg {
	var agg winAgg
	uniArea := s.Universe.Area()
	n := s.Tree.Len()
	for _, q := range queries {
		w := geom.RectCenteredAt(q, qx, qy)
		wv, cost := s.WindowQuery(w)
		agg.N++
		agg.Area += wv.Region.Area()
		agg.Inner += float64(len(wv.InnerInfluence))
		agg.Outer += float64(len(wv.OuterInfluence))
		agg.ResNA += float64(cost.ResultNA)
		agg.InfNA += float64(cost.InfNA)
		agg.ResPA += float64(cost.ResultPA)
		agg.InfPA += float64(cost.InfPA)
		if hist != nil {
			// Skewed data: drive the sweeping-region analysis with
			// locally varying histogram counts, capped by the
			// empty-result truncation at the local density.
			e := costmodel.WindowValidityAreaLocal(hist.EstimateWindowCount, w, s.Universe, len(wv.Result))
			// Cap by the processor's empty-result truncation box,
			// 2·(d_NN + q) per side, with d_NN predicted from the local
			// density at the focus (E[d_NN] = 1/(2√ρ)).
			if rho := hist.DensityForNN(q, 1); rho > 0 {
				d := 1 / math.Sqrt(rho)
				if lim := (d + 2*qx) * (d + 2*qy); e > lim {
					e = lim
				}
			}
			agg.EstArea += e
		} else {
			agg.EstArea += estimate(float64(n)/uniArea, qx, qy)
		}
	}
	if agg.N > 0 {
		f := float64(agg.N)
		agg.Area /= f
		agg.Inner /= f
		agg.Outer /= f
		agg.ResNA /= f
		agg.InfNA /= f
		agg.ResPA /= f
		agg.InfPA /= f
		agg.EstArea /= f
	}
	return agg
}

// buildServer creates a server (with the configured buffer) over the
// dataset.
func buildServer(d *dataset.Dataset, cfg Config, buffered bool) *core.Server {
	tree := rtree.BulkLoad(d.Items, rtree.Options{}, 0.7)
	s := core.NewServer(tree, d.Universe)
	if buffered {
		s.AttachBuffer(cfg.buffer())
	}
	return s
}

// buildHistogram constructs the Minskew histogram of the paper's setup:
// 500 buckets from a 100×100 grid.
func buildHistogram(d *dataset.Dataset) *histogram.Histogram {
	h, err := histogram.Build(d.Points(), d.Universe, 100, 100, 500)
	if err != nil {
		panic(err) // construction only fails on invalid static config
	}
	return h
}

// fmtN renders cardinalities as the paper does (10k … 1000k).
func fmtN(n int) string {
	if n%1000 == 0 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return fmt.Sprintf("%d", n)
}

func fmtF(v float64) string { return fmt.Sprintf("%.3g", v) }
