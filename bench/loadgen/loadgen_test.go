package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lbsq"
	"lbsq/internal/dataset"
)

// BENCHMARK.json and the generator must name the same workloads, and the
// manifest must stay inside the driver's limits the generator relies on.
func TestManifestMatchesSpecs(t *testing.T) {
	man, err := LoadManifest(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(Specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in Specs", len(man.Workloads), len(Specs))
	}
	for i, w := range man.Workloads {
		if w.Name != Specs[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in Specs", i, w.Name, Specs[i].Name)
		}
		// A window's p99 needs ten samples beyond it.
		if Specs[i].RefRate*window.Seconds() < 1000 {
			t.Errorf("%s: reference rate %g gives a window fewer than 1000 ops", w.Name, Specs[i].RefRate)
		}
	}
	names := map[string]bool{}
	for _, d := range append(append([]MetricDef(nil), man.EndToEnd...), man.PerLayer...) {
		if names[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		names[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !names["setup_s"] {
		t.Error("setup_s is not listed")
	}
	// A run's slices must fit its measuring time.
	total := float64(man.RunSeconds)
	used := rounds * (slice(total, openShare, rounds) + slice(total, closedShare, rounds))
	if used.Seconds() > total {
		t.Errorf("slices take %v of a %v s run", used, total)
	}
}

// smallSpec shrinks a workload's dataset so the generator tests stay fast;
// the generators read nothing of the dataset but its universe and points.
func smallSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, ok := FindSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	s.N = 5000
	return s
}

// describe renders an op by value, naming a fleet client by its first
// waypoint instead of its address.
func describe(o *op) string {
	s := fmt.Sprintf("%d %v k=%d %gx%g %v", o.kind, o.p, o.k, o.qx, o.qy, o.item)
	if o.client != nil {
		s += fmt.Sprintf(" client@%v window=%v", o.client.path[0], o.client.window)
	}
	return s
}

// sequence returns the first n ops of each connection of a workload.
func sequence(t *testing.T, s Spec, seed int64, n int) (*dataset.Dataset, source, []string) {
	t.Helper()
	d := BuildDataset(s)
	src, err := NewSource(s, seed, d)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for conn := 0; conn < 2; conn++ {
		for _, p := range plan(src, stream(seed, streamSchedule, conn), conn, s.RefRate, time.Duration(float64(n)*2/s.RefRate*float64(time.Second))) {
			out = append(out, fmt.Sprintf("%v %s", p.due, describe(&p.op)))
		}
	}
	return d, src, out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, spec := range Specs {
		s := smallSpec(t, spec.Name)
		t.Run(s.Name, func(t *testing.T) {
			da, srcA, a := sequence(t, s, 2003, 400)
			db, srcB, b := sequence(t, s, 2003, 400)
			_, srcC, c := sequence(t, s, 7, 400)
			if len(a) < 700 {
				t.Fatalf("only %d ops planned", len(a))
			}
			if !reflect.DeepEqual(da.Items, db.Items) {
				t.Error("same seed gave different datasets")
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("same seed gave different op sequences")
			}
			if reflect.DeepEqual(a, c) {
				t.Error("another seed gave the same op sequence")
			}
			switch fa := srcA.(type) {
			case *fleetSource:
				fb, fc := srcB.(*fleetSource), srcC.(*fleetSource)
				for i := range fa.clients {
					if !reflect.DeepEqual(fa.clients[i].path, fb.clients[i].path) {
						t.Fatalf("same seed gave client %d another trajectory", i)
					}
				}
				if reflect.DeepEqual(fa.clients[0].path, fc.clients[0].path) {
					t.Error("another seed gave the same trajectory")
				}
				// Clients keep their homes (the world) under every seed.
				if fa.clients[0].home != fc.clients[0].home {
					t.Error("another seed moved a client's home")
				}
			case *rwSource:
				// The hot spots belong to the world, which no seed re-draws.
				if !reflect.DeepEqual(fa.hot, srcB.(*rwSource).hot) || !reflect.DeepEqual(fa.hot, srcC.(*rwSource).hot) {
					t.Error("hot spots differ between runs")
				}
			}
		})
	}
}

// The closed slices between the open ones get through a different number
// of ops on every run; on the workloads whose counts must repeat exactly
// that may not shift the open phase's op sequence.
func TestOpenSequenceIgnoresClosedProgress(t *testing.T) {
	for _, name := range []string{"nn_fresh", "cluster3_scatter"} {
		s := smallSpec(t, name)
		open := func(closedOps int) []string {
			src, err := NewSource(s, 2003, BuildDataset(s))
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			for round := 0; round < 2; round++ {
				for i := 0; i < closedOps*(round+1); i++ {
					var o op
					src.next(i%2, false, &o)
				}
				for _, p := range plan(src, stream(2003, streamSchedule, round), 0, s.RefRate, time.Second/4) {
					out = append(out, fmt.Sprintf("%v %s", p.due, describe(&p.op)))
				}
			}
			return out
		}
		if a, b := open(10), open(357); len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the open phase's ops depend on how far the closed phase got", name)
		}
	}
}

// The write mix must keep cardinality put: every delete removes an item
// the same connection inserted earlier.
func TestRWWritesDeleteOwnInserts(t *testing.T) {
	s := smallSpec(t, "rw_durable")
	src, err := NewSource(s, 2003, BuildDataset(s))
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64]bool{}
	writes := 0
	for i := 0; i < 20000; i++ {
		var o op
		src.next(i%2, false, &o)
		switch o.kind {
		case opInsert:
			if live[o.item.ID] {
				t.Fatalf("id %d inserted twice", o.item.ID)
			}
			live[o.item.ID] = true
			writes++
		case opDelete:
			if !live[o.item.ID] {
				t.Fatalf("delete of %d, which is not live", o.item.ID)
			}
			delete(live, o.item.ID)
			writes++
		}
	}
	if share := float64(writes) / 20000; math.Abs(share-rwWriteShare) > 0.01 {
		t.Errorf("write share %.3f, want about %.2f", share, rwWriteShare)
	}
	if len(live) > 2 {
		t.Errorf("%d inserts never deleted: cardinality drifts", len(live))
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {0, 1}, {100, 100}, {1, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of nothing = %g", got)
	}
	if got := Percentile([]float64{3}, 99); got != 3 {
		t.Errorf("Percentile of one sample = %g", got)
	}
}

// Quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the gating driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 8, 4}, 2.5, 9.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median = %g", got)
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %g, want 1", got)
	}
}

// An open loop must charge a server stall to the ops that were due while
// it lasted: each is timed from its due time, not from when its
// connection came free (no coordinated omission).
func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 20 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	u := lbsq.R(0, 0, 1, 1)
	dr := &driver{
		src:   &mixSource{universe: u, closed: connStreams(1, 1), open: connStreams(1, 2), nnShare: 1, k1Share: 1},
		epoch: time.Now(),
	}
	for i := 0; i < 2; i++ {
		c := NewConn(strings.TrimPrefix(srv.URL, "http://"))
		defer c.Close()
		dr.ex = append(dr.ex, newExecutor(c, u))
	}
	// 200 ops/s over two connections: one op per connection every 10 ms,
	// so about twenty ops of the stalled connection fall due in the stall.
	ph := dr.open(context.Background(), 200, time.Second, 0, true)
	if ph.failed != 0 || ph.ops != 200 {
		t.Fatalf("%d ops, %d failed; want 200, 0", ph.ops, ph.failed)
	}
	charged, late := 0, 0
	for _, lat := range ph.lat {
		if lat >= 50 {
			charged++
		}
	}
	for _, l := range ph.lag {
		if l >= 50 {
			late++
		}
	}
	// A closed loop (or a clock restarted after each reply) would show one
	// slow op; the open loop shows the whole queue behind it.
	if charged < 10 {
		t.Errorf("%d ops were charged ≥ 50 ms of a %v stall; want the ≥ 10 that were due during it", charged, stall)
	}
	if late < 9 {
		t.Errorf("send lag shows %d late ops, want ≥ 9", late)
	}
	if got := ph.lat[len(ph.lat)-1]; got < ms(stall) {
		t.Errorf("slowest op %g ms, shorter than the stall", got)
	}
	// The spans of one op must tile it: wait + round trip + decode = op.
	for _, s := range ph.spans {
		if s.due > s.sent || s.sent > s.recv || s.recv > s.done {
			t.Fatalf("span instants out of order: %+v", s)
		}
	}
	spans := opSpans(ph.spans[:1])
	if len(spans) != 4 || spans[1].EndUS != spans[2].StartUS || spans[2].EndUS != spans[3].StartUS ||
		spans[0].StartUS != spans[1].StartUS || spans[0].EndUS != spans[3].EndUS {
		t.Errorf("span tree does not tile its op: %+v", spans)
	}
}

func TestParseScrape(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "metrics.sample"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseScrape(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"lbsq_tp_queries_total", nil, 10},
		{"lbsq_session_moves_total", nil, 2},
		{"lbsq_session_moves_total", []string{`result="hit"`}, 1},
		{"lbsq_session_moves_total", []string{`result="requery"`, `strategy="tpknn"`}, 1},
		{"lbsq_cache_misses_total", nil, 5},
		{"lbsq_http_request_duration_us_sum", []string{`path="/v1/nn"`}, 208},
		{"lbsq_http_request_duration_us_bucket", []string{`path="/v1/nn"`, `le="+Inf"`}, 1},
		{"lbsq_query_duration_us_sum", nil, 239},
		{"lbsq_no_such_family", nil, 0},
		// A family name is matched whole, not as a prefix.
		{"lbsq_session_moves", nil, 0},
	} {
		if got := s.Sum(c.name, c.labels...); got != c.want {
			t.Errorf("Sum(%s %v) = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
	later := Scrape{}
	later.Add(s)
	later.Add(s)
	if got := later.Sub(s).Sum("lbsq_tp_queries_total"); got != 10 {
		t.Errorf("delta of a doubled scrape = %g, want 10", got)
	}
	if _, err := ParseScrape([]byte("lbsq_broken{a=\"b\"} notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

func TestOracleChecksResultAndRegion(t *testing.T) {
	d := dataset.Uniform(2000, 11)
	db, err := lbsq.Open(d.Items, d.Universe, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	}()
	o := NewOracle(d.Items, d.Universe)
	rng := stream(11, 9, 0)
	q := lbsq.Pt(0.4, 0.6)
	v, _, err := db.NN(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := lbsq.EncodeNN(v)
	if err := o.CheckNN(rng, payload, q, 3); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	// The same answer presented for a far-away query is wrong there.
	if err := o.CheckNN(rng, payload, lbsq.Pt(0.9, 0.1), 3); err == nil {
		t.Error("answer accepted at a point outside its validity region")
	}
	// Once a point lands on the query, the held answer is stale.
	o.Insert(lbsq.Item{ID: 1 << 40, P: q})
	if err := o.CheckNN(rng, payload, q, 3); err == nil {
		t.Error("stale answer accepted after an insert at the query point")
	}
	o.Delete(1 << 40)
	if err := o.CheckNN(rng, payload, q, 3); err != nil {
		t.Errorf("answer rejected after the insert was undone: %v", err)
	}

	wv, _, err := db.WindowAt(context.Background(), q, 0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	wp := lbsq.EncodeWindow(wv)
	if err := o.CheckWindow(rng, wp, q, 0.05, 0.05); err != nil {
		t.Errorf("correct window answer rejected: %v", err)
	}
	if err := o.CheckWindow(rng, wp, q, 0.2, 0.2); err == nil {
		t.Error("window answer accepted for a larger window")
	}
}

func TestCompareVerdicts(t *testing.T) {
	man := &Manifest{EndToEnd: []MetricDef{
		{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.1},
	}}
	man.Workloads = append(man.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	file := func(name string, lat, thr []float64) string {
		f := &ResultFile{}
		for i := range lat {
			f.Runs = append(f.Runs, &Result{Workload: "w", Metrics: map[string]Metric{
				"lat_p50_ms": {lat[i], "ms"}, "throughput_ops_s": {thr[i], "ops/s"}}})
		}
		path := filepath.Join(t.TempDir(), name)
		if err := WriteResultFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", []float64{1.00, 1.01, 0.99, 1.00}, []float64{1000, 1005, 995, 1000})
	for _, c := range []struct {
		name      string
		lat, thr  []float64
		regressed bool
		want      []string
	}{
		{"same", []float64{1.02, 1.01, 1.00, 1.02}, []float64{990, 1000, 1001, 995}, false, []string{"ok", "ok"}},
		// Higher latency regresses; higher throughput does not.
		{"slower", []float64{1.20, 1.21, 1.19, 1.20}, []float64{1300, 1310, 1290, 1300}, true, []string{"regressed", "ok"}},
		{"less throughput", []float64{1.0, 1.0, 1.0, 1.0}, []float64{800, 805, 795, 800}, true, []string{"ok", "regressed"}},
		// A spread wider than the bound decides nothing.
		{"noisy", []float64{0.8, 1.6, 1.0, 1.3}, []float64{1000, 1000, 1000, 1000}, false, []string{"unresolved", "ok"}},
	} {
		var out bytes.Buffer
		regressed, err := Compare(&out, man, base, file("b.json", c.lat, c.thr))
		if err != nil {
			t.Fatal(err)
		}
		var verdicts []string
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == "w" {
				verdicts = append(verdicts, f[len(f)-1])
			}
		}
		if regressed != c.regressed || !reflect.DeepEqual(verdicts, c.want) {
			t.Errorf("%s: regressed=%v verdicts=%v, want %v %v\n%s", c.name, regressed, verdicts, c.regressed, c.want, out.String())
		}
	}
}
