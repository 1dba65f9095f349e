package core

import (
	"fmt"
	"math"
	"sort"

	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/tp"
)

// InfluencePair records that outsider Obj forms a validity-region edge
// with result member Member: the region lies in the half-plane of points
// closer to Member than to Obj. For 1NN queries Member is always the
// nearest neighbor; for kNN queries one outsider may pair with several
// members (and contribute several edges).
type InfluencePair struct {
	Obj    rtree.Item
	Member rtree.Item
}

// NNValidity is the server's answer to a location-based (k-)nearest-
// neighbor query: the result itself plus its validity region and the
// influence set that determines it.
type NNValidity struct {
	Query     geom.Point
	K         int
	Neighbors []nn.Neighbor // the k nearest neighbors, by distance

	// Region is the validity region V(q): the (order-k) Voronoi cell of
	// the result set, clipped to the data universe.
	Region geom.Polygon
	// Pairs are the influence pairs defining the region's bisector edges
	// (the set S_inf_p of Fig. 12).
	Pairs []InfluencePair
	// Influence is the influence set S_inf: the distinct objects
	// appearing in Pairs.
	Influence []rtree.Item

	// TPQueries is the number of TP(k)NN probes executed. In the paper's
	// loop (InfluenceSetKNNTP) it equals the number of influence pairs
	// plus confirmed vertices (Lemma 3.2); the served region probes only
	// the vertices its browse did not prove.
	TPQueries int

	// GuardCenter/GuardRadius describe an optional guard circle produced
	// by the INSQ strategy (internal/insq): the influence pairs constrain
	// the result only against the *influential* neighbors, so the answer
	// is additionally valid only while the client stays within GuardRadius
	// of GuardCenter — outside, an unseen object could enter the result.
	// GuardRadius == 0 means no guard (the TPkNN region is exact).
	GuardCenter geom.Point
	GuardRadius float64
}

// Result returns the result items without distances.
func (v *NNValidity) Result() []rtree.Item {
	out := make([]rtree.Item, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		out[i] = nb.Item
	}
	return out
}

// Valid reports whether the cached result is still correct at position
// p, using the half-plane test the paper prescribes for thin clients:
// p must be closer to each result member than to the member's paired
// influence objects. (The test deliberately ignores the universe
// boundary: Voronoi cells of border sites extend beyond it.) A guarded
// answer (GuardRadius > 0, see internal/insq) additionally requires p
// to stay inside the guard circle.
func (v *NNValidity) Valid(p geom.Point) bool {
	if v.GuardRadius > 0 && p.Dist2(v.GuardCenter) > v.GuardRadius*v.GuardRadius {
		return false
	}
	for _, pr := range v.Pairs {
		if p.Dist2(pr.Obj.P) < p.Dist2(pr.Member.P) {
			return false
		}
	}
	return true
}

// RegionPolygon reconstructs the validity-region polygon from the
// influence pairs by clipping the universe with each bisector
// half-plane — what a client that only received the wire form computes
// when it needs the region's geometry (area, rendering) rather than
// just membership tests.
func (v *NNValidity) RegionPolygon(universe geom.Rect) geom.Polygon {
	pg := universe.Polygon()
	if v.GuardRadius > 0 {
		pg = pg.IntersectConvex(inscribedPolygon(v.GuardCenter, v.GuardRadius, guardPolygonSides))
		if pg.IsEmpty() {
			return geom.Polygon{}
		}
	}
	for _, pr := range v.Pairs {
		pg = pg.ClipHalfPlane(geom.Bisector(pr.Member.P, pr.Obj.P))
		if pg.IsEmpty() {
			return geom.Polygon{}
		}
	}
	return pg
}

// guardPolygonSides is the vertex count of the regular polygon used to
// approximate a guard circle. Inscribed vertices keep the approximation
// a subset of the circle, so guarded regions stay conservative.
const guardPolygonSides = 16

// inscribedPolygon returns the regular n-gon inscribed in the circle of
// radius r around c (counter-clockwise).
func inscribedPolygon(c geom.Point, r float64, n int) geom.Polygon {
	pg := make(geom.Polygon, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		pg[i] = geom.Pt(c.X+r*math.Cos(a), c.Y+r*math.Sin(a))
	}
	return pg
}

// maxInfluenceIterations bounds the Fig. 10/12 loop against pathological
// floating-point configurations; in correct executions the loop performs
// ninf + nv iterations, both of which are small (≈ 6 each for 1NN on
// uniform data).
const maxInfluenceIterations = 100000

// vertexCapEps inflates the TP query cap so crossings landing exactly on
// the probed vertex (re-discoveries of known influence objects) are
// reported rather than lost to the strict-inequality semantics.
const vertexCapEps = 1e-9

// InfluenceSetKNN computes the validity region of members — the exact k
// nearest neighbors of q — and its minimal influence set. It browses the
// index from q; when the first objects browsed are the members, the
// region is built by guardedRegion and TP probes run only for vertices
// the guard cannot prove. Otherwise (a shard or cluster node that does
// not own the members) it runs the paper's TP loop, InfluenceSetKNNTP.
//
// The universe rectangle bounds the initial region.
func InfluenceSetKNN(ix rtree.Index, q geom.Point, members []rtree.Item, universe geom.Rect) (*NNValidity, error) {
	root := ix.RootRef()
	if len(members) == 0 || !root.Valid() {
		return InfluenceSetKNNTP(ix, q, members, universe, OrderFirst)
	}
	// A node owning the members holds them inside its root MBR, and
	// browses the i-th of them within the i-th member distance; anything
	// else falls back as soon as it shows.
	rect := ix.RefRect(root)
	reach := make([]float64, len(members))
	for i, m := range members {
		if !rect.Contains(m.P) {
			return InfluenceSetKNNTP(ix, q, members, universe, OrderFirst)
		}
		reach[i] = q.Dist2(m.P)
	}
	sort.Float64s(reach)
	b := nn.AcquireBrowser(ix, q)
	defer b.Release()
	for _, r2 := range reach {
		nb, ok := b.NextWithin(r2)
		if !ok || !isMember(members, nb.Item.ID) {
			return InfluenceSetKNNTP(ix, q, members, universe, OrderFirst)
		}
	}
	return guardedRegion(b, ix, q, members, universe)
}

// isMember reports whether id is one of the result members (k is small).
func isMember(members []rtree.Item, id int64) bool {
	for i := range members {
		if members[i].ID == id {
			return true
		}
	}
	return false
}

// newNNValidity starts the answer for result members at q.
func newNNValidity(q geom.Point, members []rtree.Item) *NNValidity {
	v := &NNValidity{Query: q, K: len(members), Neighbors: make([]nn.Neighbor, len(members))}
	for i, m := range members {
		v.Neighbors[i] = nn.Neighbor{Item: m, Dist: m.P.Dist(q)}
	}
	return v
}

// guardedRegion builds the validity region of members, which must be the
// first len(members) objects b has reported, by continuing the same
// best-first browse. Each further object o clips the region by its
// bisector with every member whose half-plane moves a vertex. A vertex v
// is proven once max_m |vm| + |qv| ≤ g, where g = b.Bound() lower-bounds
// the distance of every unbrowsed object o from q: then
// |vo| ≥ |qo| − |qv| ≥ max_m |vm|, so no unbrowsed object can cut v, and
// a convex region whose vertices are all proven is exact.
//
// The browse stops when every vertex is proven, or once the node
// accesses it spent after the members exceed the tree height per
// unproven vertex — about what a TP probe per vertex would cost. The
// remaining vertices are then confirmed by the TP loop. Only pairs whose
// bisector supports an edge of the final region are emitted.
func guardedRegion(b *nn.Browser, ix rtree.Index, q geom.Point, members []rtree.Item, universe geom.Rect) (*NNValidity, error) {
	v := newNNValidity(q, members)
	g := guardPoly{q: q, members: members}
	g.reset(universe.Polygon())
	start, height := b.Expanded(), ix.Height()
	for {
		unproven := g.unproven(b.Bound())
		if unproven == 0 || b.Expanded()-start > height*unproven {
			break
		}
		nb, ok := b.Next()
		if !ok {
			break
		}
		if !g.reaches(nb.Item.P) {
			continue
		}
		for _, m := range members {
			h := geom.Bisector(m.P, nb.Item.P)
			if !g.cuts(h) {
				continue
			}
			v.Pairs = append(v.Pairs, InfluencePair{Obj: nb.Item, Member: m})
			g.clip(h)
			if len(g.poly) == 0 {
				// Degenerate region (e.g. duplicate points tied with the
				// result): the result changes under any movement.
				v.Region = geom.Polygon{}
				v.Influence = influenceObjects(v.Pairs)
				return v, nil
			}
		}
	}

	vp := &vertexPoly{poly: g.poly, confirmed: make([]bool, len(g.poly)), exact: true}
	bound := b.Bound()
	for i, need := range g.need {
		vp.confirmed[i] = need <= bound
	}
	err := tpConfirm(ix, q, members, universe, v, vp, OrderFirst)
	if !vp.empty() {
		v.Pairs = edgePairs(v.Pairs, vp.poly)
	}
	v.Influence = influenceObjects(v.Pairs)
	return v, err
}

// guardPoly is the region under construction in guardedRegion, with per
// vertex the squared distance r2 to its farthest member and the guard
// distance need = |qv| + max_m |vm| that proves it.
type guardPoly struct {
	q       geom.Point
	members []rtree.Item
	poly    geom.Polygon
	r2      []float64
	need    []float64
}

func (g *guardPoly) reset(pg geom.Polygon) {
	g.poly = pg
	g.r2, g.need = g.r2[:0], g.need[:0]
	for _, p := range pg {
		r2 := g.farthest2(p)
		g.r2 = append(g.r2, r2)
		g.need = append(g.need, g.q.Dist(p)+math.Sqrt(r2))
	}
}

// farthest2 returns the squared distance from p to its farthest member.
func (g *guardPoly) farthest2(p geom.Point) float64 {
	r2 := 0.0
	for _, m := range g.members {
		r2 = max(r2, p.Dist2(m.P))
	}
	return r2
}

// unproven counts the vertices the guard distance bound cannot prove.
func (g *guardPoly) unproven(bound float64) int {
	n := 0
	for _, need := range g.need {
		if need > bound {
			n++
		}
	}
	return n
}

// reaches reports whether o is closer to some vertex than that vertex's
// farthest member — the only way any of o's bisectors can cut it.
func (g *guardPoly) reaches(o geom.Point) bool {
	for i, p := range g.poly {
		if p.Dist2(o) < g.r2[i] {
			return true
		}
	}
	return false
}

// cuts reports whether clipping by h would drop a vertex.
func (g *guardPoly) cuts(h geom.HalfPlane) bool {
	if h.Degenerate() {
		return false
	}
	tol := exactTol(h)
	for _, p := range g.poly {
		if h.Eval(p) > tol {
			return true
		}
	}
	return false
}

// clip intersects the region with h. Surviving vertices are copied
// bit-identically by the clip, so they keep their distances; only the
// new vertices are measured.
func (g *guardPoly) clip(h geom.HalfPlane) {
	old, oldR2, oldNeed := g.poly, g.r2, g.need
	g.poly = g.poly.ClipHalfPlaneTol(h, exactTol(h))
	g.r2, g.need = make([]float64, len(g.poly)), make([]float64, len(g.poly))
	j := 0
	for i, p := range g.poly {
		k := j
		for k < len(old) && !geom.SamePoint(old[k], p) {
			k++
		}
		if k < len(old) {
			g.r2[i], g.need[i], j = oldR2[k], oldNeed[k], k+1
			continue
		}
		g.r2[i] = g.farthest2(p)
		g.need[i] = g.q.Dist(p) + math.Sqrt(g.r2[i])
	}
}

// exactTol is the clipping tolerance of the served region: a distance
// slack of about Eps. ClipHalfPlane's fixed Eps·(1+|A|+|B|) allows up
// to Eps/|AB| — 10⁻⁶ for neighbors 10⁻³ apart, coarser than the
// regions of k-NN queries on large datasets.
func exactTol(h geom.HalfPlane) float64 {
	return geom.Eps * (math.Abs(h.A) + math.Abs(h.B))
}

// edgePairs keeps the pairs whose bisector supports an edge of the convex
// polygon pg: both endpoints on the bisector line, within the clipping
// tolerance. The polygon is the intersection of the universe with these
// pairs' half-planes, so the dropped pairs constrain nothing.
func edgePairs(pairs []InfluencePair, pg geom.Polygon) []InfluencePair {
	out := pairs[:0]
	for _, pr := range pairs {
		h := geom.Bisector(pr.Member.P, pr.Obj.P)
		tol := exactTol(h)
		for i := range pg {
			a, c := pg[i], pg[(i+1)%len(pg)]
			if math.Abs(h.Eval(a)) <= tol && math.Abs(h.Eval(c)) <= tol {
				out = append(out, pr)
				break
			}
		}
	}
	return out
}

// influenceObjects returns the distinct objects of pairs, in order of
// first appearance.
func influenceObjects(pairs []InfluencePair) []rtree.Item {
	var out []rtree.Item
	for _, pr := range pairs {
		if !isMember(out, pr.Obj.ID) {
			out = append(out, pr.Obj)
		}
	}
	return out
}

// InfluenceSetKNNTP runs the paper's algorithm Retrieve_Influence_Set_kNN
// (Fig. 12; Fig. 10 is the k = 1 case): starting from the data universe,
// repeatedly probe an unconfirmed region vertex with a TPkNN query,
// clipping the region by the bisector of every newly discovered
// influence pair, until all vertices are confirmed. order picks the
// vertex probed next (see VertexOrder). It is the reference the
// experiments measure and the fallback of InfluenceSetKNN.
//
// members must be the exact k nearest neighbors of q. The universe
// rectangle bounds the initial region.
func InfluenceSetKNNTP(ix rtree.Index, q geom.Point, members []rtree.Item, universe geom.Rect, order VertexOrder) (*NNValidity, error) {
	v := newNNValidity(q, members)
	if len(members) == 0 {
		return v, fmt.Errorf("core: empty result set")
	}
	vp := newVertexPoly(universe.Polygon())
	err := tpConfirm(ix, q, members, universe, v, vp, order)
	v.Influence = influenceObjects(v.Pairs)
	return v, err
}

// tpConfirm is the TP loop of Figs. 10/12 over the region vp: it probes
// unconfirmed vertices with TPkNN queries, appending each newly found
// influence pair to v.Pairs and clipping by its bisector, until every
// vertex is confirmed; then it sets v.Region. Pairs already in v.Pairs
// count as known.
func tpConfirm(ix rtree.Index, q geom.Point, members []rtree.Item, universe geom.Rect, v *NNValidity, vp *vertexPoly, order VertexOrder) error {
	for iter := 0; iter < maxInfluenceIterations; iter++ {
		vi := vp.nextUnconfirmed(order, q)
		if vi < 0 {
			if geom.Checking {
				assertRegion(q, vp.poly, universe)
			}
			v.Region = vp.poly
			return nil
		}
		vert := vp.poly[vi]
		d := q.Dist(vert)
		if d <= geom.Eps {
			// The query sits on the region boundary (a tie); nothing to
			// probe in this direction.
			vp.confirm(vi)
			continue
		}
		u := vert.Sub(q).Unit()
		tCap := d*(1+vertexCapEps) + 1e-12
		res := tp.KNN(ix, q, u, members, tCap)
		v.TPQueries++
		if !res.Found || knownPair(v.Pairs, res.Obj.ID, res.Member.ID) {
			vp.confirm(vi)
			continue
		}
		v.Pairs = append(v.Pairs, InfluencePair{Obj: res.Obj, Member: res.Member})
		vp.clip(geom.Bisector(res.Member.P, res.Obj.P))
		if vp.empty() {
			// Degenerate region (e.g. duplicate points tied with the
			// result): the result changes under any movement.
			v.Region = geom.Polygon{}
			return nil
		}
	}
	v.Region = vp.poly
	return fmt.Errorf("core: influence-set iteration cap reached (degenerate input?)")
}

// knownPair reports whether pairs already holds (obj, member).
func knownPair(pairs []InfluencePair, obj, member int64) bool {
	for _, pr := range pairs {
		if pr.Obj.ID == obj && pr.Member.ID == member {
			return true
		}
	}
	return false
}

// assertRegion checks the Lemma 3.1/3.2 invariants on a completed
// validity region: it must contain the query point and stay convex (it
// is an intersection of half-planes). The region is clipped to the
// universe rectangle, so containment is only required for in-universe
// queries. Guarded by geom.Checking, so the calls compile away outside
// lbsqcheck builds.
func assertRegion(q geom.Point, pg geom.Polygon, universe geom.Rect) {
	if pg.IsEmpty() {
		return
	}
	if universe.Contains(q) && !pg.Contains(q) {
		panic("core: validity region does not contain the query point")
	}
	if !pg.IsConvex() {
		panic("core: validity region is not convex")
	}
}

// InfluenceSet1NN is InfluenceSetKNN for the single nearest neighbor o
// (the served counterpart of Retrieve_Influence_Set_1NN, Fig. 10).
func InfluenceSet1NN(ix rtree.Index, q geom.Point, o rtree.Item, universe geom.Rect) (*NNValidity, error) {
	return InfluenceSetKNN(ix, q, []rtree.Item{o}, universe)
}
