// Package core implements the paper's contribution: location-based
// spatial queries. A server answering a nearest-neighbor or window query
// additionally computes a validity region — the area around the query
// point within which the result is guaranteed unchanged — together with
// the minimal influence set of data points that determines the region.
// Mobile clients cache the result and re-query only after leaving the
// region.
//
// Nearest-neighbor validity regions (Section 3) are (order-k) Voronoi
// cells computed on the fly: served from the NN search's own best-first
// descent, with time-parameterized NN queries (the paper's algorithm)
// only where that descent cannot prove a vertex; window
// validity regions (Section 4) combine the inner validity rectangle of
// the result points with the Minkowski rectangles of nearby outer
// points.
package core

import (
	"lbsq/internal/geom"
)

// vertexPoly is a convex polygon whose vertices carry the "confirmed"
// flag of the influence-set algorithms (Figs. 10/12): a vertex is
// confirmed when a TP query toward it discovers no new influence object.
// Vertices that survive a half-plane clip keep their flags (survivors are
// copied bit-identically by the clipping routine, so exact coordinate
// matching is sound); newly created vertices start unconfirmed.
type vertexPoly struct {
	poly      geom.Polygon
	confirmed []bool
	// exact selects the served region's clipping (exactTol, empty only
	// when degenerate) over the paper loop's geom defaults, under which
	// regions of area ≤ geom.Eps read as empty.
	exact bool
}

func newVertexPoly(pg geom.Polygon) *vertexPoly {
	return &vertexPoly{poly: pg, confirmed: make([]bool, len(pg))}
}

// VertexOrder selects which unconfirmed vertex the influence-set loop
// probes next. The paper picks arbitrarily (Fig. 10 line 4); the
// ordering does not affect correctness, only potentially the number of
// probes — measured by the ablation experiment.
type VertexOrder int

const (
	// OrderFirst probes the first unconfirmed vertex in polygon order
	// (the default, matching the paper's "any non-confirmed vertex").
	OrderFirst VertexOrder = iota
	// OrderNearest probes the unconfirmed vertex closest to the query.
	OrderNearest
	// OrderFarthest probes the unconfirmed vertex farthest from the
	// query.
	OrderFarthest
)

// nextUnconfirmed returns the index of an unconfirmed vertex per the
// given order, or -1 when all are confirmed.
func (vp *vertexPoly) nextUnconfirmed(order VertexOrder, q geom.Point) int {
	best, bestD := -1, 0.0
	for i, c := range vp.confirmed {
		if c {
			continue
		}
		switch order {
		case OrderNearest:
			d := vp.poly[i].Dist2(q)
			if best == -1 || d < bestD {
				best, bestD = i, d
			}
		case OrderFarthest:
			d := vp.poly[i].Dist2(q)
			if best == -1 || d > bestD {
				best, bestD = i, d
			}
		default:
			return i
		}
	}
	return best
}

func (vp *vertexPoly) confirm(i int) { vp.confirmed[i] = true }

func (vp *vertexPoly) empty() bool {
	if vp.exact {
		return len(vp.poly) == 0
	}
	return vp.poly.IsEmpty()
}

// clip intersects the polygon with half-plane h, carrying confirmed
// flags across to surviving vertices.
func (vp *vertexPoly) clip(h geom.HalfPlane) {
	old := make(map[geom.Point]bool, len(vp.poly))
	for i, p := range vp.poly {
		if vp.confirmed[i] {
			old[p] = true
		}
	}
	if vp.exact {
		vp.poly = vp.poly.ClipHalfPlaneTol(h, exactTol(h))
	} else {
		vp.poly = vp.poly.ClipHalfPlane(h)
	}
	vp.confirmed = make([]bool, len(vp.poly))
	for i, p := range vp.poly {
		vp.confirmed[i] = old[p]
	}
}
