package lbsq_test

import (
	"context"
	"fmt"

	"lbsq"
)

// The basic protocol: one location-based NN query, then local validity
// checks as the client moves.
func ExampleDB_NN() {
	items, universe := lbsq.UniformDataset(100_000, 42)
	db, _ := lbsq.Open(items, universe, nil)

	v, cost, err := db.NN(context.Background(), lbsq.Pt(0.4, 0.6), 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("neighbors:", len(v.Neighbors))
	fmt.Println("region edges:", v.Region.Edges())
	fmt.Println("influence objects:", len(v.Influence))
	fmt.Println("node accesses:", cost.Total())
	fmt.Println("still valid nearby:", v.Valid(lbsq.Pt(0.4001, 0.6)))
	// Output:
	// neighbors: 1
	// region edges: 6
	// influence objects: 6
	// node accesses: 5
	// still valid nearby: true
}

// A moving map viewport: the window result plus the region of focus
// positions where the screen contents cannot change.
func ExampleDB_WindowAt() {
	items, universe := lbsq.UniformDataset(100_000, 42)
	db, _ := lbsq.Open(items, universe, nil)

	w, _, err := db.WindowAt(context.Background(), lbsq.Pt(0.5, 0.5), 0.05, 0.05)
	if err != nil {
		panic(err)
	}
	fmt.Println("on screen:", len(w.Result))
	fmt.Println("inner influence:", len(w.InnerInfluence))
	fmt.Println("focus valid:", w.Valid(lbsq.Pt(0.5, 0.5)))
	// Output:
	// on screen: 224
	// inner influence: 1
	// focus valid: true
}

// A cached mobile client: only a fraction of position updates reach
// the server.
func ExampleNNClient() {
	items, universe := lbsq.UniformDataset(100_000, 42)
	db, _ := lbsq.Open(items, universe, nil)

	client := db.NewNNClient(1)
	for i := 0; i < 100; i++ {
		p := lbsq.Pt(0.30+float64(i)*0.0002, 0.70)
		if _, err := client.At(p); err != nil {
			panic(err)
		}
	}
	fmt.Println("position updates:", client.Stats.PositionUpdates)
	fmt.Printf("server queries: %d\n", client.Stats.ServerQueries)
	// Output:
	// position updates: 100
	// server queries: 12
}

// Range queries ("everything within r of me") — the paper's future-work
// extension with arc-bounded validity regions.
func ExampleDB_Range() {
	items, universe := lbsq.UniformDataset(100_000, 42)
	db, _ := lbsq.Open(items, universe, nil)

	rv, _, err := db.Range(context.Background(), lbsq.Pt(0.5, 0.5), 0.02)
	if err != nil {
		panic(err)
	}
	fmt.Println("within radius:", len(rv.Result))
	fmt.Println("can move safely:", rv.SafeDistance(lbsq.Pt(0.5, 0.5)) > 0)
	// Output:
	// within radius: 108
	// can move safely: true
}

// Continuous NN along a known route: the full partition in one call.
func ExampleDB_RouteNN() {
	items, universe := lbsq.UniformDataset(100_000, 42)
	db, _ := lbsq.Open(items, universe, nil)

	route, err := db.RouteNN(context.Background(), lbsq.Pt(0.10, 0.50), lbsq.Pt(0.12, 0.50))
	if err != nil {
		panic(err)
	}
	fmt.Println("intervals:", len(route))
	iv, _ := lbsq.RouteNNAt(route, 0.01)
	fmt.Println("covers mid-route:", iv.From <= 0.01 && iv.To >= 0.01)
	// Output:
	// intervals: 11
	// covers mid-route: true
}
