package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"lbsq"
)

// Oracle is the brute-force reference: the generator's own copy of the
// dataset, scanned linearly. It shares no index code with the servers.
type Oracle struct {
	universe lbsq.Rect
	items    []lbsq.Item
	index    map[int64]int // id → position in items

	// RegionPoints counts the points checked that lay inside a returned
	// validity region and apart from the query point: how often the
	// paper's contract, not just the result at the query point, was tested.
	RegionPoints int
}

// NewOracle copies items.
func NewOracle(items []lbsq.Item, universe lbsq.Rect) *Oracle {
	o := &Oracle{universe: universe, items: append([]lbsq.Item(nil), items...), index: make(map[int64]int, len(items))}
	for i, it := range o.items {
		o.index[it.ID] = i
	}
	return o
}

// Len returns the number of live points.
func (o *Oracle) Len() int { return len(o.items) }

// Insert adds a point.
func (o *Oracle) Insert(it lbsq.Item) {
	o.index[it.ID] = len(o.items)
	o.items = append(o.items, it)
}

// Delete removes a point by id.
func (o *Oracle) Delete(id int64) {
	i, ok := o.index[id]
	if !ok {
		return
	}
	last := len(o.items) - 1
	o.items[i] = o.items[last]
	o.index[o.items[i].ID] = i
	o.items = o.items[:last]
	delete(o.index, id)
}

// kthDist2 returns the squared distance from p to its k-th nearest point.
func (o *Oracle) kthDist2(p lbsq.Point, k int) float64 {
	best := make([]float64, 0, k) // ascending
	for _, it := range o.items {
		d := p.Dist2(it.P)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		if len(best) < k {
			best = append(best, 0)
		}
		copy(best[i+1:], best[i:])
		best[i] = d
	}
	if len(best) < k {
		return math.Inf(1)
	}
	return best[k-1]
}

// isKNN reports whether ids are k distinct live points none of which is
// farther from p than the true k-th nearest neighbour — that is, whether
// they are a correct k-NN answer at p, ties included.
func (o *Oracle) isKNN(p lbsq.Point, ids []int64, k int) bool {
	if len(ids) != k {
		return false
	}
	seen := make(map[int64]bool, k)
	worst := 0.0
	for _, id := range ids {
		i, ok := o.index[id]
		if !ok || seen[id] {
			return false
		}
		seen[id] = true
		worst = math.Max(worst, p.Dist2(o.items[i].P))
	}
	return worst <= o.kthDist2(p, k)
}

// isWindow reports whether ids are exactly the live points inside w.
func (o *Oracle) isWindow(w lbsq.Rect, ids []int64) bool {
	want := map[int64]bool{}
	for _, it := range o.items {
		if w.Contains(it.P) {
			want[it.ID] = true
		}
	}
	if len(ids) != len(want) {
		return false
	}
	for _, id := range ids {
		if !want[id] {
			return false
		}
		delete(want, id) // a repeated id must not match twice
	}
	return true
}

// windowDiff names the points by which ids differs from the live points
// inside w, for error messages.
func (o *Oracle) windowDiff(w lbsq.Rect, ids []int64) string {
	got := map[int64]bool{}
	for _, id := range ids {
		got[id] = true
	}
	var b strings.Builder
	for _, it := range o.items {
		if w.Contains(it.P) && !got[it.ID] {
			fmt.Fprintf(&b, " missing %d at (%.17g, %.17g)", it.ID, it.P.X, it.P.Y)
		}
		if !w.Contains(it.P) && got[it.ID] {
			fmt.Fprintf(&b, " extra %d at (%.17g, %.17g)", it.ID, it.P.X, it.P.Y)
		}
		delete(got, it.ID)
	}
	for id := range got {
		fmt.Fprintf(&b, " extra %d, not live", id)
	}
	return fmt.Sprintf("%d points returned;%s", len(ids), b.String())
}

// regionProbes is how many points inside a returned validity region are
// checked besides the query point itself.
const regionProbes = 3

// insideRegion draws a point other than q that the answer's own
// membership test (what a thin client runs) accepts and that lies in the
// universe. It starts a few region radii out and shrinks toward q.
//
// The point must lie inside the region by a margin, tested on the eight
// neighbours at that offset: the geometry treats anything within
// geom.Eps = 1e-9 of a region's edge as inside, so a point that close to
// the edge can already see the next result without the answer being
// stale in any sense a client could observe. Regions are intersections
// of half-planes and discs or rectangles minus rectangles; for all of
// them eight accepted neighbours put the whole square between them
// inside.
func (o *Oracle) insideRegion(rng *rand.Rand, q lbsq.Point, valid func(lbsq.Point) bool) lbsq.Point {
	u := o.universe
	margin := 1e-7 * u.Width()
	inside := func(p lbsq.Point) bool {
		for dx := -1.0; dx <= 1; dx++ {
			for dy := -1.0; dy <= 1; dy++ {
				n := lbsq.Pt(p.X+dx*margin, p.Y+dy*margin)
				if !u.Contains(n) || !valid(n) {
					return false
				}
			}
		}
		return true
	}
	angle := rng.Float64() * 2 * math.Pi
	dx, dy := math.Cos(angle), math.Sin(angle)
	for r := 0.01 * u.Width(); r > 10*margin; r *= 0.7 {
		if p := lbsq.Pt(q.X+r*dx, q.Y+r*dy); inside(p) {
			o.RegionPoints++
			return p
		}
	}
	return q
}

// CheckNN verifies the paper's contract for an NN answer received for a
// query at q: the result is a correct k-NN set at q and at regionProbes
// points inside the returned validity region.
func (o *Oracle) CheckNN(rng *rand.Rand, payload []byte, q lbsq.Point, k int) error {
	v, err := lbsq.DecodeNN(payload)
	if err != nil {
		return err
	}
	ids := make([]int64, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		ids[i] = nb.Item.ID
	}
	if !v.Valid(q) {
		return fmt.Errorf("NN k=%d at %v: position outside the returned validity region", k, q)
	}
	if !o.isKNN(q, ids, k) {
		return fmt.Errorf("NN k=%d at %v: result %v differs from brute force", k, q, ids)
	}
	for i := 0; i < regionProbes; i++ {
		p := o.insideRegion(rng, q, v.Valid)
		if !o.isKNN(p, ids, k) {
			return fmt.Errorf("NN k=%d at (%.17g, %.17g): result %v is stale at (%.17g, %.17g) inside its validity region", k, q.X, q.Y, ids, p.X, p.Y)
		}
	}
	return nil
}

// CheckWindow is CheckNN for a window answer with focus f and extents
// qx×qy.
func (o *Oracle) CheckWindow(rng *rand.Rand, payload []byte, f lbsq.Point, qx, qy float64) error {
	wv, err := lbsq.DecodeWindow(payload, o.universe)
	if err != nil {
		return err
	}
	ids := make([]int64, len(wv.Result))
	for i, it := range wv.Result {
		ids[i] = it.ID
	}
	if !wv.Valid(f) {
		return fmt.Errorf("window at %v: focus outside the returned validity region", f)
	}
	if !o.isWindow(rectAround(f, qx, qy), ids) {
		return fmt.Errorf("window at (%.17g, %.17g): result differs from brute force: %s", f.X, f.Y, o.windowDiff(rectAround(f, qx, qy), ids))
	}
	for i := 0; i < regionProbes; i++ {
		p := o.insideRegion(rng, f, wv.Valid)
		if !o.isWindow(rectAround(p, qx, qy), ids) {
			return fmt.Errorf("window at (%.17g, %.17g): result is stale at (%.17g, %.17g) inside its validity region: %s", f.X, f.Y, p.X, p.Y, o.windowDiff(rectAround(p, qx, qy), ids))
		}
	}
	return nil
}

func rectAround(c lbsq.Point, qx, qy float64) lbsq.Rect {
	return lbsq.R(c.X-qx/2, c.Y-qy/2, c.X+qx/2, c.Y+qy/2)
}

// verify checks the kept responses of one phase in send order, applying
// the acknowledged writes as it goes. writes must be sorted by recv. A
// read is checked only if no write was in flight at any moment between
// its send and its receipt, so the dataset it ran against is known.
// It returns the number checked and the failures.
func (o *Oracle) verify(seed int64, samples []sample, writes []writeRec, applied *int) (checked int, failures []error) {
	rng := stream(seed, streamOracle, 0)
	sort.SliceStable(samples, func(a, b int) bool { return samples[a].sent < samples[b].sent })
	for _, s := range samples {
		for *applied < len(writes) && writes[*applied].recv < s.sent {
			w := writes[*applied]
			if w.insert {
				o.Insert(w.item)
			} else {
				o.Delete(w.item.ID)
			}
			*applied++
		}
		overlap := false
		for _, w := range writes[*applied:] {
			if w.sent <= s.recv {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		var err error
		switch {
		case s.op.kind == opNN:
			err = o.CheckNN(rng, s.body, s.op.p, s.op.k)
		case s.op.kind == opWindow:
			err = o.CheckWindow(rng, s.body, s.op.p, s.op.qx, s.op.qy)
		case s.op.kind == opMove && s.op.client.window:
			err = o.CheckWindow(rng, s.body, s.op.p, s.op.qx, s.op.qy)
		case s.op.kind == opMove:
			err = o.CheckNN(rng, s.body, s.op.p, 1)
		default:
			continue
		}
		checked++
		if err != nil {
			failures = append(failures, err)
		}
	}
	return checked, failures
}
