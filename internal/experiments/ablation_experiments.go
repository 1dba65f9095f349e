package experiments

import (
	"fmt"
	"math"

	"lbsq/internal/core"
	"lbsq/internal/dataset"
	"lbsq/internal/geom"
	"lbsq/internal/nn"
	"lbsq/internal/rtree"
)

// Ablations quantifies the design choices DESIGN.md calls out:
//
//   - best-first [HS99] vs depth-first [RKV95] NN search (node accesses);
//   - vertex-probing order in the influence-set loop (TP probes);
//   - LRU buffer size sweep for the TP-probe locality claim;
//   - conservative rectangle vs exact rectilinear window region (area);
//   - STR bulk-load fill factor (window query node accesses).
func Ablations(cfg Config) []Table {
	d := dataset.Uniform(cfg.fixedN(), cfg.Seed)
	items := d.Items
	qpts := dataset.QueryPoints(d, cfg.queries(), cfg.Seed+1)

	var out []Table
	out = append(out, ablNNAlgorithm(items, qpts))
	out = append(out, ablVertexOrder(items, qpts))
	out = append(out, ablBufferSweep(items, qpts))
	out = append(out, ablConservativeWindow(items, qpts))
	out = append(out, ablBulkLoadFill(items, qpts))
	return out
}

func ablNNAlgorithm(items []rtree.Item, qpts []geom.Point) Table {
	t := Table{
		Title:   "ablation: best-first [HS99] vs depth-first [RKV95] node accesses",
		Columns: []string{"k", "best-first NA", "depth-first NA"},
	}
	tree := rtree.BulkLoad(items, rtree.Options{}, 0.7)
	for _, k := range []int{1, 10, 100} {
		var bf, df float64
		for _, q := range qpts {
			tree.ResetAccesses()
			nn.KNearest(tree, q, k)
			bf += float64(tree.NodeAccesses())
			tree.ResetAccesses()
			nn.KNearestDepthFirst(tree, q, k)
			df += float64(tree.NodeAccesses())
		}
		n := float64(len(qpts))
		t.Rows = append(t.Rows, []string{fmtN(k), fmtF(bf / n), fmtF(df / n)})
	}
	return t
}

func ablVertexOrder(items []rtree.Item, qpts []geom.Point) Table {
	t := Table{
		Title:   "ablation: vertex-probing order in the influence-set loop (k=1)",
		Columns: []string{"order", "TP probes", "influence NA"},
	}
	tree := rtree.BulkLoad(items, rtree.Options{}, 0.7)
	uni := geom.R(0, 0, 1, 1)
	for _, ord := range []struct {
		name string
		o    core.VertexOrder
	}{
		{"first unconfirmed (paper)", core.OrderFirst},
		{"nearest vertex first", core.OrderNearest},
		{"farthest vertex first", core.OrderFarthest},
	} {
		var probes, na float64
		n := 0
		for _, q := range qpts {
			o, ok := nn.Nearest(tree, q)
			if !ok {
				continue
			}
			tree.ResetAccesses()
			v, err := core.InfluenceSetKNNTP(tree, q, []rtree.Item{o.Item}, uni, ord.o)
			if err != nil {
				continue
			}
			probes += float64(v.TPQueries)
			na += float64(tree.NodeAccesses())
			n++
		}
		t.Rows = append(t.Rows, []string{ord.name, fmtF(probes / float64(n)), fmtF(na / float64(n))})
	}
	return t
}

func ablBufferSweep(items []rtree.Item, qpts []geom.Point) Table {
	t := Table{
		Title:   "ablation: LRU buffer size vs TP-probe page faults (k=1)",
		Columns: []string{"buffer", "NN query PA", "TP probes PA"},
	}
	uni := geom.R(0, 0, 1, 1)
	for _, frac := range []float64{0.01, 0.05, 0.10, 0.25, 0.50} {
		tree := rtree.BulkLoad(items, rtree.Options{}, 0.7)
		s := core.NewServer(tree, uni)
		s.AttachBuffer(frac)
		var res, inf float64
		n := 0
		for _, q := range qpts {
			_, cost, err := s.NNQueryTP(q, 1)
			if err != nil {
				continue
			}
			res += float64(cost.ResultPA)
			inf += float64(cost.InfPA)
			n++
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", frac*100), fmtF(res / float64(n)), fmtF(inf / float64(n)),
		})
	}
	return t
}

func ablConservativeWindow(items []rtree.Item, qpts []geom.Point) Table {
	t := Table{
		Title:   "ablation: conservative rectangle vs exact window region (area retained)",
		Columns: []string{"qs", "exact area", "conservative area", "retained"},
	}
	tree := rtree.BulkLoad(items, rtree.Options{}, 0.7)
	uni := geom.R(0, 0, 1, 1)
	for _, frac := range []float64{0.0001, 0.001, 0.01} {
		side := math.Sqrt(frac)
		var exact, cons float64
		n := 0
		for _, q := range qpts {
			wv := core.WindowQuery(tree, geom.RectCenteredAt(q, side, side), uni)
			exact += wv.Region.Area()
			cons += wv.Conservative.Area()
			n++
		}
		t.Rows = append(t.Rows, []string{
			fmtPct(frac), fmtF(exact / float64(n)), fmtF(cons / float64(n)),
			fmt.Sprintf("%.0f%%", 100*cons/exact),
		})
	}
	return t
}

func ablBulkLoadFill(items []rtree.Item, qpts []geom.Point) Table {
	t := Table{
		Title:   "ablation: STR bulk-load fill factor vs window query cost",
		Columns: []string{"fill", "nodes", "window NA (qs=0.1%)"},
	}
	side := math.Sqrt(0.001)
	for _, fill := range []float64{0.5, 0.7, 0.9, 1.0} {
		tree := rtree.BulkLoad(items, rtree.Options{}, fill)
		var na float64
		for _, q := range qpts {
			tree.ResetAccesses()
			tree.Search(geom.RectCenteredAt(q, side, side), func(rtree.Item) bool { return true })
			na += float64(tree.NodeAccesses())
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", fill*100),
			fmt.Sprintf("%d", tree.NodeCount()),
			fmtF(na / float64(len(qpts))),
		})
	}
	return t
}
