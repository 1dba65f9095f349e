package core

import (
	"fmt"

	"lbsq/internal/buffer"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
	"lbsq/internal/rtree/arena"
)

// QueryCost reports the server-side cost of one location-based query,
// split into the phase that computes the plain result and the phase that
// computes the influence set, matching the two-bar breakdown of the
// paper's Figures 27/28/34/35.
type QueryCost struct {
	// ResultNA / InfNA are node accesses of the result phase (NN or
	// window query) and the influence phase (TP probes or the extended
	// window query).
	ResultNA, InfNA int64
	// ResultPA / InfPA are page faults under the attached LRU buffer;
	// without a buffer they equal the node accesses.
	ResultPA, InfPA int64
	// TPQueries is the number of TP probes issued (NN queries only; see
	// NNValidity.TPQueries).
	TPQueries int
}

// Total returns total node accesses.
func (c QueryCost) Total() int64 { return c.ResultNA + c.InfNA }

// TotalPA returns total page accesses.
func (c QueryCost) TotalPA() int64 { return c.ResultPA + c.InfPA }

// QueryEngine is the location-based query surface: every query returns
// the result plus the validity region within which it stays exact, with
// per-phase cost accounting. Both the single-index Server and the
// sharded scatter-gather cluster (internal/shard) implement it; mobile
// clients run against either transparently.
type QueryEngine interface {
	NNQuery(q geom.Point, k int) (*NNValidity, QueryCost, error)
	WindowQuery(w geom.Rect) (*WindowValidity, QueryCost)
	WindowQueryAt(focus geom.Point, qx, qy float64) (*WindowValidity, QueryCost)
	RangeQuery(center geom.Point, radius float64) (*RangeValidity, QueryCost)
	UniverseRect() geom.Rect
}

// Server processes location-based spatial queries over a static point
// dataset indexed by an R*-tree.
type Server struct {
	// Tree is the mutable pointer R*-tree; writes always go here.
	Tree *rtree.Tree
	// Index is the read path: the Tree itself under the pointer layout,
	// or a frozen arena.Arena after UseArena. All queries and cost
	// accounting run against it.
	Index    rtree.Index
	Universe geom.Rect
	Buffer   *buffer.LRU // nil = unbuffered
}

// UniverseRect returns the data universe (QueryEngine).
func (s *Server) UniverseRect() geom.Rect { return s.Universe }

// NewServer wraps an R-tree whose points live inside universe.
func NewServer(tree *rtree.Tree, universe geom.Rect) *Server {
	return &Server{Tree: tree, Index: tree, Universe: universe}
}

// AttachBuffer installs an LRU buffer holding the given fraction of the
// tree's pages (the paper uses 10%). A fraction ≤ 0 detaches the buffer.
func (s *Server) AttachBuffer(fraction float64) {
	if fraction <= 0 {
		s.Buffer = nil
		s.Index.SetTracker(nil)
		return
	}
	pages := int(float64(s.Index.NodeCount()) * fraction)
	if pages < 1 {
		pages = 1
	}
	s.Buffer = buffer.NewLRU(pages)
	s.Index.SetTracker(s.Buffer)
}

// UseArena freezes the pointer tree into a flat arena and switches the
// read path onto it. The cumulative access counter carries over so
// NA/PA deltas taken across the swap stay monotonic; the page tracker
// (if any) moves with it. Callers must not mutate the tree afterwards
// without calling RefreshArena.
func (s *Server) UseArena() {
	a := arena.Freeze(s.Tree)
	a.SeedAccesses(s.Index.NodeAccesses())
	if s.Buffer != nil {
		a.SetTracker(s.Buffer)
	}
	s.Index = a
}

// UsingArena reports whether the read path runs on a frozen arena.
func (s *Server) UsingArena() bool {
	_, ok := s.Index.(*arena.Arena)
	return ok
}

// RefreshArena re-freezes the arena from the (just mutated) pointer
// tree. A no-op under the pointer layout, where Tree and Index are the
// same structure.
func (s *Server) RefreshArena() {
	if s.UsingArena() {
		s.UseArena()
	}
}

func (s *Server) faults() int64 {
	if s.Buffer == nil {
		return 0
	}
	return s.Buffer.Faults()
}

// NNQuery answers a location-based k-nearest-neighbor query at q
// (Sec. 3.2) with one best-first descent [HS99]: the first k objects it
// reports are the result (charged to ResultNA); browsing on builds the
// validity region and its influence set (guardedRegion), with TP probes
// only for vertices the browse does not prove.
func (s *Server) NNQuery(q geom.Point, k int) (*NNValidity, QueryCost, error) {
	return s.nnQuery(q, k, false)
}

// NNQueryTP is NNQuery with the paper's region algorithm: the k nearest
// neighbors, then the TPkNN loop of InfluenceSetKNNTP. It is the
// reference the experiments measure (Figs. 25–28).
func (s *Server) NNQueryTP(q geom.Point, k int) (*NNValidity, QueryCost, error) {
	return s.nnQuery(q, k, true)
}

func (s *Server) nnQuery(q geom.Point, k int, tpOnly bool) (*NNValidity, QueryCost, error) {
	var cost QueryCost
	na0, pa0 := s.Index.NodeAccesses(), s.faults()
	b := nn.AcquireBrowser(s.Index, q)
	defer b.Release()
	members := make([]rtree.Item, 0, k)
	for len(members) < k {
		nb, ok := b.Next()
		if !ok {
			break
		}
		members = append(members, nb.Item)
	}
	na1, pa1 := s.Index.NodeAccesses(), s.faults()
	if len(members) < k {
		return nil, cost, fmt.Errorf("core: dataset has fewer than %d points", k)
	}
	var v *NNValidity
	var err error
	if tpOnly {
		v, err = InfluenceSetKNNTP(s.Index, q, members, s.Universe, OrderFirst)
	} else {
		v, err = guardedRegion(b, s.Index, q, members, s.Universe)
	}
	na2, pa2 := s.Index.NodeAccesses(), s.faults()
	cost = QueryCost{
		ResultNA: na1 - na0, InfNA: na2 - na1,
		ResultPA: pa1 - pa0, InfPA: pa2 - pa1,
		TPQueries: v.TPQueries,
	}
	if s.Buffer == nil {
		cost.ResultPA, cost.InfPA = cost.ResultNA, cost.InfNA
	}
	return v, cost, err
}

// WindowQueryAt answers a location-based window query whose window of
// extents qx×qy is centered at the focus.
func (s *Server) WindowQueryAt(focus geom.Point, qx, qy float64) (*WindowValidity, QueryCost) {
	return s.WindowQuery(geom.RectCenteredAt(focus, qx, qy))
}

// WindowQuery answers a location-based window query (Sec. 4).
func (s *Server) WindowQuery(w geom.Rect) (*WindowValidity, QueryCost) {
	var cost QueryCost
	na0, pa0 := s.Index.NodeAccesses(), s.faults()
	wv := windowQuery(s.Index, w, s.Universe, func() {
		cost.ResultNA = s.Index.NodeAccesses() - na0
		cost.ResultPA = s.faults() - pa0
	})
	cost.InfNA = s.Index.NodeAccesses() - na0 - cost.ResultNA
	cost.InfPA = s.faults() - pa0 - cost.ResultPA
	if s.Buffer == nil {
		cost.ResultPA, cost.InfPA = cost.ResultNA, cost.InfNA
	}
	return wv, cost
}
