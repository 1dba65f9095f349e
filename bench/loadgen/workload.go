package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"lbsq"
	"lbsq/internal/dataset"
	"lbsq/internal/trajectory"
)

// Spec is one named workload: what is deployed and what traffic it gets
// (BENCHMARK.json and the README say why it exists). RefRate is the
// open-phase arrival rate — about 0.45 of the seed commit's median
// closed-phase throughput on the 2-core reference box, rounded to two
// significant figures and then frozen. It is a constant of the benchmark
// and is never derived at run time: latency at a fixed offered load is
// comparable across commits, latency at "half of whatever this commit
// manages" is not. It is at least 1000 ops/s, so that a one-second
// window's 99th percentile has ten samples beyond it.
type Spec struct {
	Name    string
	Dataset string // "uniform" or "gr"
	N       int
	RefRate float64 // ops/s offered in the open phase
	WarmOps int     // closed-loop warm-up ops per connection (a count, so the state the open phase starts from repeats)
	Cluster bool    // three data nodes behind a coordinator
	Durable bool    // -data-dir, kill-and-restart check
	Args    []string
}

// Specs lists the workloads in the order they are run and reported.
var Specs = []Spec{
	{
		Name:    "nn_fresh",
		Dataset: "uniform", N: 100_000, RefRate: 2400, WarmOps: 3000,
	},
	{
		Name:    "fleet_session",
		Dataset: "gr", N: 100_000, RefRate: 5000, WarmOps: 6000,
	},
	{
		Name:    "rw_durable",
		Dataset: "uniform", N: 100_000, RefRate: 3200, WarmOps: 2000,
		Durable: true,
		Args:    []string{"-sync", "always", "-checkpoint-every", "1000", "-cache", "4096"},
	},
	{
		Name:    "cluster3_scatter",
		Dataset: "uniform", N: clusterN, RefRate: 1000, WarmOps: 1000,
		Cluster: true,
	},
}

// FindSpec returns the workload called name.
func FindSpec(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

const (
	// clusterN is the cluster's cardinality. The coordinator seeds its
	// nodes with one RPC per item (a baseline recorded in the README, not
	// fixed here), so set-up time grows with it; this size keeps three
	// timed set-ups per run inside the driver's time cap while setup_s
	// still exposes the per-item rate.
	clusterN = 20000
	// clusterWindow gives about the same 24 points per window at clusterN
	// that 0.02×0.02 gives at 60k points.
	clusterWindow = 0.035

	fleetClients  = 2000
	fleetWindows  = 400 // of fleetClients; the rest are NN k=1 sessions
	fleetWindowQ  = 0.01
	fleetSteps    = 256
	fleetJitter   = 0.2
	fleetRoam     = 0.005   // side of a client's neighbourhood box, as a share of the universe
	fleetStep     = 0.00005 // per-tick travel as a share of the universe: ≈ 0.85 server-side region hits on the seed commit
	rwHotSpots    = 256
	rwZipfS       = 1.1
	rwSigma       = 5e-4
	rwWriteShare  = 0.05
	rwNNShare     = 0.60 // of all ops; windows are the remaining reads
	rwWindowQ     = 0.01
	rwParked      = 500
	rwFirstID     = 1_000_000 // fresh ids start above every dataset id
	rwIDsPerConn  = 100_000_000
	nnFreshK1Rate = 0.7
)

// WorldSeed generates what a workload's traffic runs against — the
// dataset, the read hot spots, the fleet's home points — and --seed
// generates the traffic itself: query points, op mix, trajectories,
// jitter, written points and arrival times. The world is not re-drawn per
// seed because its properties are heavy-tailed and do not average out
// inside one run: a few dominant towns of the GR-like dataset decide how
// many points a window session returns (854 to 2058 B/op across ten
// worlds), and the Zipf-heaviest hot spots decide the cache hit ratio.
// Another world is another workload, not another sample of the same one,
// and a benchmark that re-drew it could not tell a 10 % change from a
// change of seed.
const WorldSeed = 2003

// Purposes of the seeded streams, so that no two draw the same numbers.
const (
	streamOps       = iota + 1 // per connection: query points, op mix, jitter around hot spots
	streamOpsClosed            // the same for the closed phase of the stateless mix
	streamSchedule             // per slice and connection: open-phase arrival times
	streamHotSpots             // world: rw_durable's hot spots
	streamZipf                 // per connection: hot-spot popularity draws
	streamHomes                // world: fleet_session's home points
	streamPaths                // per client: trajectory
	streamRestart              // the queries of the kill-and-restart check
	streamOracle               // per phase: points sampled inside returned regions
)

// BuildDataset generates the workload's dataset. The servers only ever
// see the file written from it.
func BuildDataset(s Spec) *dataset.Dataset {
	if s.Dataset == "gr" {
		return dataset.GRLike(s.N, WorldSeed)
	}
	return dataset.Uniform(s.N, WorldSeed)
}

// planned is one open-phase op with its due time from the phase start.
type planned struct {
	due time.Duration
	op  op
}

// source generates a workload's ops. Everything it produces is a pure
// function of the seed: the servers receive only generated inputs.
type source interface {
	// prepare creates the server-side state the traffic needs (sessions).
	prepare(ctx context.Context, ex []*executor) error
	// next fills o with the next op of connection conn; open tells which
	// phase asks. A source whose ops depend on earlier ones (a client's
	// position, a writer's live inserts) serves both phases from one
	// sequence. The stateless mix keeps a stream per phase, so that the
	// open phase's op sequence — and with it wire_bytes_per_op and
	// node_accesses_per_op — is a pure function of the seed, however many
	// ops the closed slices before it got through.
	next(conn int, open bool, o *op)
}

// streamSeed derives an independent seed per (seed, purpose, index).
func streamSeed(seed int64, purpose, index int) int64 {
	return seed*1_000_003 + int64(purpose)*100_003 + int64(index)
}

func stream(seed int64, purpose, index int) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, purpose, index)))
}

// plan lays connection conn's next ops on the open-phase clock: each
// connection offers rate/2 ops/s, its i-th op due at a seeded uniform
// instant inside the i-th slot of 2/rate seconds.
//
// Why neither a fixed spacing nor a Poisson schedule: with a fixed spacing
// the two connections keep their phase, and the run is bistable — while
// latency stays under half a slot the two ops never overlap and stay
// fast, once it exceeds it they overlap, contend for the box's two cores
// and stay slow, and whole seconds flip between the two. A Poisson
// schedule at this utilisation makes the generator's own queue (two
// connections, so two ops in flight at most) the largest and noisiest
// part of every latency. Jittered slots mix overlapping and separate
// arrivals in every window alike, and put at most two ops of a connection
// into any stretch of one slot's length.
func plan(src source, rng *rand.Rand, conn int, rate float64, d time.Duration) []planned {
	slot := 2 / rate // seconds between ops of one connection
	n := int(math.Round(d.Seconds() / slot))
	out := make([]planned, n)
	for i := range out {
		out[i].due = time.Duration((float64(i) + rng.Float64()) * slot * float64(time.Second))
		src.next(conn, true, &out[i].op)
	}
	return out
}

func uniformPoint(rng *rand.Rand, u lbsq.Rect) lbsq.Point {
	return lbsq.Pt(u.MinX+rng.Float64()*u.Width(), u.MinY+rng.Float64()*u.Height())
}

// NewSource builds the op generator of a workload over its dataset.
func NewSource(s Spec, seed int64, d *dataset.Dataset) (source, error) {
	switch s.Name {
	case "nn_fresh":
		return &mixSource{universe: d.Universe, nnShare: 1, k1Share: nnFreshK1Rate,
			closed: connStreams(seed, streamOpsClosed), open: connStreams(seed, streamOps)}, nil
	case "cluster3_scatter":
		return &mixSource{universe: d.Universe, nnShare: 0.5, k1Share: 1, qx: clusterWindow, qy: clusterWindow,
			closed: connStreams(seed, streamOpsClosed), open: connStreams(seed, streamOps)}, nil
	case "fleet_session":
		return newFleetSource(seed, d), nil
	case "rw_durable":
		return newRWSource(seed, d), nil
	}
	return nil, fmt.Errorf("no generator for workload %q", s.Name)
}

func connStreams(seed int64, purpose int) [2]*rand.Rand {
	return [2]*rand.Rand{stream(seed, purpose, 0), stream(seed, purpose, 1)}
}

// mixSource issues stateless NN and window queries at uniform points.
type mixSource struct {
	universe lbsq.Rect
	closed   [2]*rand.Rand // per connection: warm-up and closed phase
	open     [2]*rand.Rand // per connection: open phase
	nnShare  float64       // share of NN queries; the rest are windows qx×qy
	k1Share  float64       // share of NN queries with k=1; the rest k=10
	qx, qy   float64
}

func (m *mixSource) prepare(context.Context, []*executor) error { return nil }

func (m *mixSource) next(conn int, open bool, o *op) {
	rng := m.closed[conn]
	if open {
		rng = m.open[conn]
	}
	*o = op{p: uniformPoint(rng, m.universe)}
	if rng.Float64() < m.nnShare {
		o.kind, o.k = opNN, 10
		if rng.Float64() < m.k1Share {
			o.k = 1
		}
		return
	}
	o.kind, o.qx, o.qy = opWindow, m.qx*m.universe.Width(), m.qy*m.universe.Height()
}

// openSession registers one continuous query and returns its id and
// first result payload.
func openSession(ctx context.Context, e *executor, window bool, p lbsq.Point, qx, qy float64) (string, []byte, error) {
	req := map[string]interface{}{"type": "nn", "x": p.X, "y": p.Y, "k": 1}
	if window {
		req = map[string]interface{}{"type": "window", "x": p.X, "y": p.Y, "qx": qx, "qy": qy}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", nil, err
	}
	status, out, err := e.conn.Do(ctx, http.MethodPost, "/v1/session", body)
	if err != nil {
		return "", nil, err
	}
	if status != http.StatusOK {
		return "", nil, fmt.Errorf("open session: status %d: %s", status, firstLine(out))
	}
	var resp struct {
		ID      string `json:"id"`
		Payload []byte `json:"payload"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return "", nil, err
	}
	if resp.ID == "" || len(resp.Payload) == 0 {
		return "", nil, fmt.Errorf("open session: empty id or payload")
	}
	return resp.ID, resp.Payload, nil
}

// fleetSource is the paper's moving-client scenario: thin clients that
// report every position to their server-side session.
type fleetSource struct {
	universe lbsq.Rect
	clients  []*fleetClient
	rr       [2]int // round-robin cursor per connection
}

func newFleetSource(seed int64, d *dataset.Dataset) *fleetSource {
	u := d.Universe
	starts := dataset.QueryPoints(d, fleetClients, streamSeed(WorldSeed, streamHomes, 0))
	f := &fleetSource{universe: u}
	for i, s := range starts {
		// Each client roams a neighbourhood box around a start point
		// drawn from the data distribution, so the fleet stays where the
		// data (and therefore the small validity regions) are.
		half := fleetRoam * u.Width() / 2
		box := lbsq.R(math.Max(u.MinX, s.X-half), math.Max(u.MinY, s.Y-half),
			math.Min(u.MaxX, s.X+half), math.Min(u.MaxY, s.Y+half))
		f.clients = append(f.clients, &fleetClient{
			window: i%(fleetClients/fleetWindows) == 0,
			home:   s,
			dir:    1,
			path: trajectory.Waypoints(box, trajectory.Config{
				Step: fleetStep * u.Width(), Jitter: fleetJitter, Steps: fleetSteps, Seed: streamSeed(seed, streamPaths, i),
			}),
		})
	}
	return f
}

func (f *fleetSource) prepare(ctx context.Context, ex []*executor) error {
	for i, c := range f.clients {
		id, payload, err := openSession(ctx, ex[i%2], c.window, c.path[0],
			fleetWindowQ*f.universe.Width(), fleetWindowQ*f.universe.Height())
		if err != nil {
			return err
		}
		c.id, c.held = id, payload
	}
	return nil
}

func (f *fleetSource) move(c *fleetClient, o *op) {
	*o = op{kind: opMove, client: c, p: c.advance()}
	if c.window {
		o.qx, o.qy = fleetWindowQ*f.universe.Width(), fleetWindowQ*f.universe.Height()
	}
}

// next moves the connection's clients in turn, so on the open-phase
// clock every client posts once per tick of clients ÷ rate seconds.
func (f *fleetSource) next(conn int, _ bool, o *op) {
	i := f.rr[conn]*2 + conn
	f.rr[conn] = (f.rr[conn] + 1) % (len(f.clients) / 2)
	f.move(f.clients[i], o)
}

// rwSource reads at Zipf-popular hot spots and writes beside them.
type rwSource struct {
	universe lbsq.Rect
	hot      []lbsq.Point
	rng      [2]*rand.Rand
	zipf     [2]*rand.Zipf
	writers  [2]rwWriter
}

// rwWriter is one connection's writer: it alternates inserting a fresh
// id near a hot spot and deleting its own oldest insert, so cardinality
// stays put and a delete always follows its insert on the same
// connection.
type rwWriter struct {
	nextID int64
	live   []lbsq.Item
	del    bool
}

func newRWSource(seed int64, d *dataset.Dataset) *rwSource {
	r := &rwSource{universe: d.Universe, rng: connStreams(seed, streamOps)}
	hot := stream(WorldSeed, streamHotSpots, 0)
	for i := 0; i < rwHotSpots; i++ {
		r.hot = append(r.hot, uniformPoint(hot, d.Universe))
	}
	for c := range r.zipf {
		r.zipf[c] = rand.NewZipf(stream(seed, streamZipf, c), rwZipfS, 1, rwHotSpots-1)
		r.writers[c].nextID = rwFirstID + int64(c)*rwIDsPerConn
	}
	return r
}

func (r *rwSource) prepare(ctx context.Context, ex []*executor) error {
	// Parked sessions sit at hot spots and never move: they exist so that
	// every write has session regions to puncture-test.
	for i := 0; i < rwParked; i++ {
		if _, _, err := openSession(ctx, ex[i%2], false, r.near(r.rng[i%2], i%rwHotSpots), 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// near jitters hot spot h by the Gaussian read spread.
func (r *rwSource) near(rng *rand.Rand, h int) lbsq.Point {
	u := r.universe
	p := lbsq.Pt(r.hot[h].X+rng.NormFloat64()*rwSigma*u.Width(), r.hot[h].Y+rng.NormFloat64()*rwSigma*u.Height())
	p.X = math.Min(u.MaxX, math.Max(u.MinX, p.X))
	p.Y = math.Min(u.MaxY, math.Max(u.MinY, p.Y))
	return p
}

func (r *rwSource) next(conn int, _ bool, o *op) {
	rng := r.rng[conn]
	p := r.near(rng, int(r.zipf[conn].Uint64()))
	x := rng.Float64()
	switch {
	case x < rwWriteShare:
		w := &r.writers[conn]
		if w.del && len(w.live) > 0 {
			*o = op{kind: opDelete, item: w.live[0]}
			w.live = w.live[1:]
		} else {
			it := lbsq.Item{ID: w.nextID, P: p}
			w.nextID++
			w.live = append(w.live, it)
			*o = op{kind: opInsert, item: it}
		}
		w.del = !w.del
	case x < rwWriteShare+rwNNShare:
		*o = op{kind: opNN, p: p, k: 1}
	default:
		*o = op{kind: opWindow, p: p, qx: rwWindowQ * r.universe.Width(), qy: rwWindowQ * r.universe.Height()}
	}
}
