// Quickstart: open a dataset, ask one location-based NN query and one
// location-based window query, and use the returned validity regions to
// answer follow-up positions without touching the server.
package main

import (
	"context"
	"fmt"

	"lbsq"
)

func main() {
	// 100k uniform points in the unit square (a synthetic city of POIs).
	items, universe := lbsq.UniformDataset(100_000, 42)
	db, err := lbsq.Open(items, universe, nil)
	if err != nil {
		panic(err)
	}

	// --- Location-based nearest neighbor --------------------------------
	me := lbsq.Pt(0.4, 0.6)
	v, cost, err := db.NN(context.Background(), me, 1)
	if err != nil {
		panic(err)
	}
	nn := v.Neighbors[0]
	fmt.Printf("nearest neighbor of %v: point %d at %v (dist %.4g)\n",
		me, nn.Item.ID, nn.Item.P, nn.Dist)
	fmt.Printf("validity region: %d edges, area %.3g, %d influence objects\n",
		v.Region.Edges(), v.Region.Area(), len(v.Influence))
	fmt.Printf("server cost: %d node accesses (%d for the NN, %d for the region, %d TP probes)\n",
		cost.Total(), cost.ResultNA, cost.InfNA, cost.TPQueries)

	// While we stay inside the region the answer provably cannot change —
	// no server round trip needed.
	for _, move := range []lbsq.Point{lbsq.Pt(0.4005, 0.6), lbsq.Pt(0.41, 0.62), lbsq.Pt(0.5, 0.7)} {
		if v.Valid(move) {
			fmt.Printf("  at %v: still %d (checked locally)\n", move, nn.Item.ID)
		} else {
			fmt.Printf("  at %v: left the validity region -> re-query\n", move)
		}
	}

	// --- Location-based window query ------------------------------------
	// A 0.05×0.05 viewport centered on us (e.g. POIs on screen).
	w, _, err := db.WindowAt(context.Background(), me, 0.05, 0.05)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nwindow result: %d points; validity region area %.3g "+
		"(%d inner + %d outer influence objects)\n",
		len(w.Result), w.Region.Area(), len(w.InnerInfluence), len(w.OuterInfluence))
	fmt.Printf("conservative rectangle: %v\n", w.Conservative)

	// The compact wire form is what a mobile client would receive.
	fmt.Printf("\nwire sizes: NN response %d bytes, window response %d bytes\n",
		len(lbsq.EncodeNN(v)), len(lbsq.EncodeWindow(w)))
}
