// Package nn implements nearest-neighbor search over the R*-tree: the
// depth-first branch-and-bound algorithm of [RKV95], the optimal
// best-first ("distance browsing") algorithm of [HS99], and an
// incremental neighbor iterator used by the Voronoi-cell construction.
//
// All algorithms run against the rtree.Index seam — the pointer tree
// and the flat arena layout interchangeably — and count node accesses
// through Index.Visit so the experiments report the same NA/PA metrics
// as the paper regardless of layout.
package nn

import (
	"math"
	"sync"

	"lbsq/internal/geom"
	"lbsq/internal/rtree"
)

// Neighbor is a result of a nearest-neighbor query.
type Neighbor struct {
	Item rtree.Item
	Dist float64
}

// pqEntry is a priority-queue element: either an R-tree node or a data
// item, keyed by (squared) distance from the query point.
type pqEntry struct {
	key  float64
	node bool // node entry (ref set) vs item entry (item set)
	ref  rtree.NodeRef
	item rtree.Item
}

// pq is a typed binary min-heap of pqEntry. The sift operations follow
// container/heap's algorithm exactly (same comparison and swap order),
// so pop order — and therefore node-access counts — are identical to
// the previous container/heap implementation, without the interface
// boxing heap.Push forces on every entry.
type pq []pqEntry

func (q pq) less(i, j int) bool {
	// Exact comparator: tolerant comparison breaks strict weak order.
	if !geom.ExactEq(q[i].key, q[j].key) {
		return q[i].key < q[j].key
	}
	// Tie-break: items before nodes so equal-distance results surface
	// deterministically.
	return !q[i].node && q[j].node
}

func (q *pq) push(e pqEntry) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

func (q *pq) pop() pqEntry {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	q.down(0, n)
	e := h[n]
	*q = h[:n]
	return e
}

func (q pq) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q pq) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// Browser incrementally reports the data items nearest to a query point
// in non-decreasing distance order [HS99]. It accesses only the nodes
// whose MBRs are closer than the next reported neighbor — the optimal
// node-access behaviour.
type Browser struct {
	ix       rtree.Index
	q        geom.Point
	heap     pq
	expanded int
}

// NewBrowser starts distance browsing from q.
func NewBrowser(ix rtree.Index, q geom.Point) *Browser {
	b := &Browser{}
	b.reset(ix, q)
	return b
}

// browserPool recycles browsers and their heaps across queries.
var browserPool = sync.Pool{New: func() interface{} {
	return &Browser{heap: make(pq, 0, 512)}
}}

// AcquireBrowser is NewBrowser drawing the browser and its heap from a
// pool: with a warm pool, browsing allocates nothing. Hand the browser
// back with Release once done.
//
//lbsq:hotpath
func AcquireBrowser(ix rtree.Index, q geom.Point) *Browser {
	b := browserPool.Get().(*Browser)
	b.reset(ix, q)
	return b
}

// Release returns a browser obtained from AcquireBrowser to the pool;
// the browser must not be used afterwards.
//
//lbsq:hotpath
func (b *Browser) Release() {
	b.ix = nil
	b.heap = b.heap[:0]
	browserPool.Put(b)
}

//lbsq:hotpath
func (b *Browser) reset(ix rtree.Index, q geom.Point) {
	b.ix, b.q, b.heap, b.expanded = ix, q, b.heap[:0], 0
	if root := ix.RootRef(); root.Valid() {
		b.heap.push(pqEntry{key: ix.RefRect(root).MinDist2(q), node: true, ref: root})
	}
}

// Next returns the next nearest item and its distance, or ok=false when
// the dataset is exhausted.
//
//lbsq:hotpath
func (b *Browser) Next() (Neighbor, bool) {
	return b.NextWithin(math.Inf(1))
}

// NextWithin is Next restricted to items at squared distance at most
// limit2 from the query point: it returns ok=false, consuming nothing
// more, as soon as every unreported item is known to lie farther.
//
//lbsq:hotpath
func (b *Browser) NextWithin(limit2 float64) (Neighbor, bool) {
	for len(b.heap) > 0 && b.heap[0].key <= limit2 {
		e := b.heap.pop()
		if !e.node {
			return Neighbor{Item: e.item, Dist: math.Sqrt(e.key)}, true
		}
		expand(b.ix, &b.heap, e.ref, b.q)
		b.expanded++
	}
	return Neighbor{}, false
}

// Bound returns a lower bound on the distance from the query point of
// every item not yet reported (+Inf once the dataset is exhausted): the
// key of the browser's next heap entry.
func (b *Browser) Bound() float64 {
	if len(b.heap) == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(b.heap[0].key)
}

// Expanded returns the number of nodes the browser has read so far —
// its own node accesses, exact under concurrent use of the index.
func (b *Browser) Expanded() int { return b.expanded }

// expand visits a node and pushes its entries keyed by (squared)
// distance from q.
//
//lbsq:hotpath
func expand(ix rtree.Index, h *pq, r rtree.NodeRef, q geom.Point) {
	ix.Visit(r)
	n := ix.RefFanout(r)
	if ix.RefLeaf(r) {
		for i := 0; i < n; i++ {
			it := ix.RefItem(r, i)
			h.push(pqEntry{key: it.P.Dist2(q), item: it})
		}
		return
	}
	for i := 0; i < n; i++ {
		h.push(pqEntry{key: ix.RefChildRect(r, i).MinDist2(q), node: true, ref: ix.RefChild(r, i)})
	}
}

// KNearest returns the k nearest neighbors of q using best-first search
// [HS99], ordered by increasing distance. Fewer than k are returned only
// if the dataset is smaller than k.
func KNearest(ix rtree.Index, q geom.Point, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	return KNearestInto(ix, q, k, make([]Neighbor, 0, k))
}

// KNearestInto is KNearest appending into a caller-supplied slice
// (reset to length 0 first): with a warm pool and a dst with capacity,
// the whole query performs zero heap allocations.
//
//lbsq:hotpath
func KNearestInto(ix rtree.Index, q geom.Point, k int, dst []Neighbor) []Neighbor {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	b := AcquireBrowser(ix, q)
	for len(dst) < k {
		nb, ok := b.Next()
		if !ok {
			break
		}
		dst = append(dst, nb)
	}
	b.Release()
	return dst
}

// Nearest returns the single nearest neighbor of q, and ok=false on an
// empty tree.
func Nearest(ix rtree.Index, q geom.Point) (Neighbor, bool) {
	res := KNearest(ix, q, 1)
	if len(res) == 0 {
		return Neighbor{}, false
	}
	return res[0], true
}

// KNearestDepthFirst returns the k nearest neighbors using the
// depth-first branch-and-bound algorithm of [RKV95]: entries in each
// node are visited in mindist order and subtrees are pruned when their
// mindist exceeds the current k-th neighbor distance. It visits at least
// as many nodes as best-first search; both are kept for the ablation
// benchmarks.
func KNearestDepthFirst(ix rtree.Index, q geom.Point, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	best := &kBest{k: k}
	if root := ix.RootRef(); root.Valid() {
		dfVisit(ix, root, q, best)
	}
	return best.sorted()
}

func dfVisit(ix rtree.Index, r rtree.NodeRef, q geom.Point, best *kBest) {
	ix.Visit(r)
	if ix.RefLeaf(r) {
		for i, n := 0, ix.RefFanout(r); i < n; i++ {
			it := ix.RefItem(r, i)
			best.offer(Neighbor{Item: it, Dist: it.P.Dist(q)})
		}
		return
	}
	fan := ix.RefFanout(r)
	order := make([]int, fan)
	keys := make([]float64, fan)
	for i := 0; i < fan; i++ {
		order[i] = i
		keys[i] = ix.RefChildRect(r, i).MinDist2(q)
	}
	// Insertion sort by mindist (fanouts are small relative to sort cost).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && keys[order[j]] < keys[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, idx := range order {
		if best.full() && keys[idx] >= best.worst2() {
			break // remaining entries are at least as far
		}
		dfVisit(ix, ix.RefChild(r, idx), q, best)
	}
}

// kBest maintains the k closest neighbors seen so far as a max-heap.
type kBest struct {
	k    int
	heap []Neighbor // max-heap by Dist
}

func (b *kBest) full() bool { return len(b.heap) >= b.k }

func (b *kBest) worst2() float64 {
	if len(b.heap) == 0 {
		return math.Inf(1)
	}
	d := b.heap[0].Dist
	return d * d
}

func (b *kBest) offer(n Neighbor) {
	if len(b.heap) < b.k {
		b.heap = append(b.heap, n)
		b.up(len(b.heap) - 1)
		return
	}
	if n.Dist >= b.heap[0].Dist {
		return
	}
	b.heap[0] = n
	b.down(0)
}

func (b *kBest) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if b.heap[p].Dist >= b.heap[i].Dist {
			return
		}
		b.heap[p], b.heap[i] = b.heap[i], b.heap[p]
		i = p
	}
}

func (b *kBest) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(b.heap) && b.heap[l].Dist > b.heap[big].Dist {
			big = l
		}
		if r < len(b.heap) && b.heap[r].Dist > b.heap[big].Dist {
			big = r
		}
		if big == i {
			return
		}
		b.heap[i], b.heap[big] = b.heap[big], b.heap[i]
		i = big
	}
}

func (b *kBest) sorted() []Neighbor {
	out := append([]Neighbor(nil), b.heap...)
	// Simple sort by distance; k is small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Dist < out[j-1].Dist; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
