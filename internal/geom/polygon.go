package geom

import "math"

// Polygon is a convex polygon with vertices in counter-clockwise order.
// An empty slice denotes the empty region. The validity regions of
// location-based nearest-neighbor queries are represented as Polygons
// (intersections of half-planes are always convex).
type Polygon []Point

// Clone returns a copy of the polygon.
func (pg Polygon) Clone() Polygon {
	out := make(Polygon, len(pg))
	copy(out, pg)
	return out
}

// IsEmpty reports whether the polygon has no interior (fewer than three
// vertices or near-zero area).
func (pg Polygon) IsEmpty() bool {
	return len(pg) < 3 || pg.Area() <= Eps
}

// Area returns the polygon area via the shoelace formula.
func (pg Polygon) Area() float64 {
	if len(pg) < 3 {
		return 0
	}
	sum := 0.0
	for i := 0; i < len(pg); i++ {
		j := (i + 1) % len(pg)
		sum += pg[i].Cross(pg[j])
	}
	return math.Abs(sum) / 2
}

// Perimeter returns the total edge length.
func (pg Polygon) Perimeter() float64 {
	if len(pg) < 2 {
		return 0
	}
	sum := 0.0
	for i := 0; i < len(pg); i++ {
		sum += pg[i].Dist(pg[(i+1)%len(pg)])
	}
	return sum
}

// Centroid returns the area centroid; for degenerate polygons it returns
// the vertex average.
func (pg Polygon) Centroid() Point {
	if len(pg) == 0 {
		return Point{}
	}
	a := 0.0
	var cx, cy float64
	for i := 0; i < len(pg); i++ {
		j := (i + 1) % len(pg)
		cr := pg[i].Cross(pg[j])
		a += cr
		cx += (pg[i].X + pg[j].X) * cr
		cy += (pg[i].Y + pg[j].Y) * cr
	}
	if math.Abs(a) < Eps {
		var s Point
		for _, p := range pg {
			s = s.Add(p)
		}
		return s.Scale(1 / float64(len(pg)))
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// Contains reports whether p lies inside the convex polygon (boundary
// inclusive). Vertices must be in CCW order.
func (pg Polygon) Contains(p Point) bool {
	if len(pg) < 3 {
		return false
	}
	for i := 0; i < len(pg); i++ {
		a, b := pg[i], pg[(i+1)%len(pg)]
		edge := b.Sub(a)
		// Tolerance scales with edge length so long skinny regions behave.
		if edge.Cross(p.Sub(a)) < -Eps*(1+edge.Norm()) {
			return false
		}
	}
	return true
}

// ContainsStrict reports whether p lies strictly inside the polygon.
func (pg Polygon) ContainsStrict(p Point) bool {
	if len(pg) < 3 {
		return false
	}
	for i := 0; i < len(pg); i++ {
		a, b := pg[i], pg[(i+1)%len(pg)]
		edge := b.Sub(a)
		if edge.Cross(p.Sub(a)) <= Eps*(1+edge.Norm()) {
			return false
		}
	}
	return true
}

// Bounds returns the MBR of the polygon.
func (pg Polygon) Bounds() Rect {
	if len(pg) == 0 {
		return EmptyRect()
	}
	return RectFromPoints(pg...)
}

// ClipHalfPlane returns the intersection of the polygon with half-plane h
// using Sutherland–Hodgman clipping. The result is again convex and CCW.
// Degenerate (zero-normal) half-planes leave the polygon unchanged.
func (pg Polygon) ClipHalfPlane(h HalfPlane) Polygon {
	return pg.ClipHalfPlaneTol(h, Eps*(1+abs(h.A)+abs(h.B)))
}

// ClipHalfPlaneTol is ClipHalfPlane keeping every vertex p with
// h.Eval(p) ≤ tol. ClipHalfPlane's tolerance, Eps·(1+|A|+|B|), is a
// fixed absolute slack; callers that must resolve regions far smaller
// than Eps in area pass one scaled to the half-plane instead.
func (pg Polygon) ClipHalfPlaneTol(h HalfPlane, tol float64) Polygon {
	if h.Degenerate() || len(pg) == 0 {
		return pg
	}
	scale := tol
	out := make(Polygon, 0, len(pg)+1)
	for i := 0; i < len(pg); i++ {
		cur, next := pg[i], pg[(i+1)%len(pg)]
		ec, en := h.Eval(cur), h.Eval(next)
		curIn, nextIn := ec <= scale, en <= scale
		if curIn {
			out = append(out, cur)
		}
		if curIn != nextIn {
			// Edge crosses the boundary; add the intersection point.
			t := ec / (ec - en)
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			x := cur.Lerp(next, t)
			// Avoid duplicating a vertex that sits exactly on the line.
			if len(out) == 0 || !out[len(out)-1].Eq(x) {
				out = append(out, x)
			}
		}
	}
	// Remove a duplicated closing vertex, if any.
	if len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	if len(out) < 3 {
		return Polygon{}
	}
	if Checking && !out.IsConvex() {
		panic("geom: ClipHalfPlane produced a non-convex polygon")
	}
	return out
}

// IsConvex reports whether the polygon is convex with counter-clockwise
// orientation, within the epsilon tolerance (collinear vertex triples
// are accepted). Polygons with fewer than three vertices are trivially
// convex. This is the invariant every clipping result must preserve;
// lbsqcheck builds assert it after each construction.
func (pg Polygon) IsConvex() bool {
	n := len(pg)
	if n < 3 {
		return true
	}
	for i := 0; i < n; i++ {
		a, b, c := pg[i], pg[(i+1)%n], pg[(i+2)%n]
		ab, bc := b.Sub(a), c.Sub(b)
		cross := ab.X*bc.Y - ab.Y*bc.X
		tol := Eps * (1 + math.Sqrt(ab.Dot(ab)*bc.Dot(bc)))
		if cross < -tol {
			return false
		}
	}
	return true
}

// ClipRect returns the intersection of the polygon with rectangle r.
func (pg Polygon) ClipRect(r Rect) Polygon {
	out := pg
	out = out.ClipHalfPlane(HalfPlane{A: -1, B: 0, C: -r.MinX}) // x ≥ MinX
	out = out.ClipHalfPlane(HalfPlane{A: 1, B: 0, C: r.MaxX})   // x ≤ MaxX
	out = out.ClipHalfPlane(HalfPlane{A: 0, B: -1, C: -r.MinY}) // y ≥ MinY
	out = out.ClipHalfPlane(HalfPlane{A: 0, B: 1, C: r.MaxY})   // y ≤ MaxY
	return out
}

// Edges returns the number of edges of the polygon.
func (pg Polygon) Edges() int {
	if len(pg) < 3 {
		return 0
	}
	return len(pg)
}

// DistToBoundary returns the minimum distance from p to the polygon
// boundary. For p inside the region this is the "safe distance" a client
// can travel in any direction before its cached result may expire.
func (pg Polygon) DistToBoundary(p Point) float64 {
	if len(pg) == 0 {
		return 0
	}
	min := math.Inf(1)
	for i := 0; i < len(pg); i++ {
		d := distPointSegment(p, pg[i], pg[(i+1)%len(pg)])
		if d < min {
			min = d
		}
	}
	return min
}

// distPointSegment returns the distance from p to segment ab.
func distPointSegment(p, a, b Point) float64 {
	ab := b.Sub(a)
	n2 := ab.Norm2()
	if ExactZero(n2) {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / n2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(a.Add(ab.Scale(t)))
}

// IntersectConvex returns the intersection of two convex polygons (both
// CCW), itself convex: pg clipped by each edge half-plane of other.
// Clients use this to combine cached validity regions — a position
// inside the intersection keeps the results of both cached queries.
func (pg Polygon) IntersectConvex(other Polygon) Polygon {
	if len(pg) < 3 || len(other) < 3 {
		return Polygon{}
	}
	out := pg
	for i := 0; i < len(other); i++ {
		a, b := other[i], other[(i+1)%len(other)]
		// Inside of a CCW edge (a→b) is the left half-plane:
		// (b−a)×(p−a) ≥ 0 ⇔ n·p ≤ c with n = (by−ay, ax−bx).
		h := HalfPlane{
			A: b.Y - a.Y,
			B: a.X - b.X,
			C: (b.Y-a.Y)*a.X + (a.X-b.X)*a.Y,
		}
		out = out.ClipHalfPlane(h)
		if out.IsEmpty() {
			return Polygon{}
		}
	}
	return out
}
