// Command lbsq-probes runs the layer probes of the benchmark and prints
// their metrics and span trees as one JSON object. lbsq-loadgen -trace 1
// runs it as a child process; run it by hand to look at one layer:
//
//	go run ./cmd/lbsq-probes -seed 2003
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"lbsq/bench/loadgen"
	"lbsq/bench/probes"
)

func main() {
	seed := flag.Int64("seed", 2003, "seed of the fixture and the queries")
	work := flag.String("work", os.TempDir(), "scratch directory for the storage probes")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	metrics, spans, err := probes.Run(ctx, *seed, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbsq-probes: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(struct {
		Metrics map[string]loadgen.Metric `json:"metrics"`
		Spans   []loadgen.Span            `json:"spans"`
	}{metrics, spans})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbsq-probes: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", out)
}
