package rtree

import "lbsq/internal/geom"

// NodeRef is an opaque handle to one node of an Index. For the pointer
// tree the node pointer N is set; flat layouts (internal/rtree/arena)
// leave N nil and use the slab index I. NodeRef is a small value type
// so hot traversal loops can keep refs in typed slices and heaps
// without boxing.
type NodeRef struct {
	N *Node
	I int32
}

// Valid reports whether the ref points at a node (an empty index
// returns an invalid root ref).
func (r NodeRef) Valid() bool { return r.N != nil || r.I >= 0 }

// Index is the read-path seam of the R*-tree: everything NN, TP,
// window and range traversal needs, expressed over NodeRef cursors so
// both the pointer Tree and the flat arena layout satisfy it. Visit is
// the access-counting hook — traversals must call it exactly once per
// node they read, mirroring Tree.CountAccess, so NA/PA cost accounting
// stays identical across layouts.
type Index interface {
	// RootRef returns a ref to the root node, or a ref with N==nil and
	// I<0 when the index is empty.
	RootRef() NodeRef
	// RefLeaf reports whether the node holds items (true) or child
	// nodes (false).
	RefLeaf(r NodeRef) bool
	// RefRect returns the node's minimum bounding rectangle.
	RefRect(r NodeRef) geom.Rect
	// RefFanout returns the number of entries (items or children).
	RefFanout(r NodeRef) int
	// RefChild returns a ref to the i-th child of an internal node.
	RefChild(r NodeRef, i int) NodeRef
	// RefChildRect returns the MBR of the i-th child without visiting it.
	RefChildRect(r NodeRef, i int) geom.Rect
	// RefItem returns the i-th item of a leaf.
	RefItem(r NodeRef, i int) Item
	// RefSubtreeCount returns the number of items under the node.
	RefSubtreeCount(r NodeRef) int
	// Visit counts one node access (and one page access against the
	// attached PageTracker, if any).
	Visit(r NodeRef)

	// Search invokes fn for every item contained in w, in tree order,
	// stopping early when fn returns false. Counts node accesses.
	Search(w geom.Rect, fn func(Item) bool)
	// SearchAppend appends every item contained in w to dst and returns
	// the extended slice. Counts node accesses. Allocation-free when
	// dst has capacity.
	SearchAppend(dst []Item, w geom.Rect) []Item
	// SearchItems returns the items contained in w. Counts node accesses.
	SearchItems(w geom.Rect) []Item
	// CountWindow counts the items contained in w, taking the
	// subtree-count shortcut for fully covered nodes. Counts node
	// accesses.
	CountWindow(w geom.Rect) int
	// CountContainedNodes counts nodes wholly contained in w without
	// charging node accesses (an analysis helper, not a query).
	CountContainedNodes(w geom.Rect) int
	// All invokes fn for every item without charging node accesses.
	All(fn func(Item) bool)

	Len() int
	// Height returns the number of levels (1 for a lone leaf root).
	Height() int
	NodeCount() int
	NodeAccesses() int64
	ResetAccesses()
	SetTracker(t PageTracker)
}

// RootRef returns a ref to the tree's root node.
func (t *Tree) RootRef() NodeRef {
	if t.root == nil {
		return NodeRef{I: -1}
	}
	return NodeRef{N: t.root}
}

// RefLeaf reports whether the referenced node is a leaf.
func (t *Tree) RefLeaf(r NodeRef) bool { return r.N.leaf }

// RefRect returns the referenced node's MBR.
func (t *Tree) RefRect(r NodeRef) geom.Rect { return r.N.rect }

// RefFanout returns the referenced node's entry count.
func (t *Tree) RefFanout(r NodeRef) int { return r.N.fanout() }

// RefChild returns a ref to the i-th child.
func (t *Tree) RefChild(r NodeRef, i int) NodeRef { return NodeRef{N: r.N.children[i]} }

// RefChildRect returns the MBR of the i-th child.
func (t *Tree) RefChildRect(r NodeRef, i int) geom.Rect { return r.N.children[i].rect }

// RefItem returns the i-th item of a leaf.
func (t *Tree) RefItem(r NodeRef, i int) Item { return r.N.items[i] }

// RefSubtreeCount returns the number of items under the node.
func (t *Tree) RefSubtreeCount(r NodeRef) int { return r.N.count }

// Visit counts one access to the referenced node.
func (t *Tree) Visit(r NodeRef) { t.CountAccess(r.N) }

// SearchAppend appends every item contained in w to dst, returning the
// extended slice. It charges the same node accesses as Search.
func (t *Tree) SearchAppend(dst []Item, w geom.Rect) []Item {
	if t.root == nil {
		return dst
	}
	return t.searchAppend(dst, t.root, w)
}

func (t *Tree) searchAppend(dst []Item, n *Node, w geom.Rect) []Item {
	t.CountAccess(n)
	if n.leaf {
		for _, it := range n.items {
			if w.Contains(it.P) {
				dst = append(dst, it)
			}
		}
		return dst
	}
	for _, c := range n.children {
		if w.Intersects(c.rect) {
			dst = t.searchAppend(dst, c, w)
		}
	}
	return dst
}

var _ Index = (*Tree)(nil)
