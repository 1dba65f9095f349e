package probes

import (
	"context"
	"net/http/httptest"
	"time"

	"lbsq"
	"lbsq/internal/dist"
)

// distN is the probe cluster's cardinality — the size cluster3_scatter
// seeds, because the seeding cost is far from linear in it.
const distN = 20_000

// probeDist times the coordinator over three in-process data nodes
// behind real (loopback) HTTP servers: seeding, the scatter-gathered NN
// and window queries, and one bare RPC round trip.
func probeDist(ctx context.Context, f *fixture, r *report) (err error) {
	u := f.uni.Universe
	var urls []string
	for i := 0; i < 3; i++ {
		node, err := lbsq.Open(nil, u, nil)
		if err != nil {
			return err
		}
		defer closing(node, &err)
		srv := httptest.NewServer(node.Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	d, err := lbsq.OpenDistributed(ctx, lbsq.DistOptions{Nodes: urls, Universe: u, Placement: lbsq.DistPlacementSpatial})
	if err != nil {
		return err
	}
	defer closing(d, &err)
	start := time.Now()
	if err := d.Seed(ctx, f.uni.Items[:distN]); err != nil {
		return err
	}
	r.set("dist.seed_items_per_s", distN/time.Since(start).Seconds(), "1/s")

	var nn, win, rpc timings
	for _, q := range f.q[:fewQueries] {
		nn.add(1, func() { _, _, _, err = d.NN(ctx, q, 1) })
		if err != nil {
			return err
		}
		win.add(1, func() { _, _, _, err = d.WindowAt(ctx, q, 0.035, 0.035) })
		if err != nil {
			return err
		}
	}
	backend := dist.NewRemoteBackend(urls[0], u, &dist.HTTPTransport{})
	for i := 0; i < fewQueries; i++ {
		rpc.add(1, func() { _, err = backend.Stats(ctx) })
		if err != nil {
			return err
		}
	}
	r.ns("dist.nn_3nodes_ns", nn)
	r.ns("dist.window_3nodes_ns", win)
	r.ns("dist.rpc_roundtrip_ns", rpc)
	return nil
}
