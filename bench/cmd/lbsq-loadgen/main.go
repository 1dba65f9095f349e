// Command lbsq-loadgen is the repo's served-path benchmark: it builds
// cmd/lbsq-server, launches the real server processes of each named
// workload, drives them over two connections (one per core of the
// reference box), verifies sampled answers against a brute-force oracle
// and prints every metric by name with its unit.
//
//	go run ./cmd/lbsq-loadgen -seed 2003                # all workloads, end-to-end metrics
//	go run ./cmd/lbsq-loadgen -seed 2003 -trace 1       # traced run: per-layer metrics
//	go run ./cmd/lbsq-loadgen -workload nn_fresh -runs 10 -out out/a.json
//	go run ./cmd/lbsq-loadgen -compare out/a.json out/b.json
//
// (run from bench/, the benchmark's own module; bench/run.sh does the same
// with every file the toolchain writes kept inside the checkout). With
// -workload the last line of standard output is the JSON object the
// benchmark driver reads. See ../../README.md for the metric and workload
// glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"lbsq/bench/loadgen"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the driver's JSON line (default: all)")
		seed     = flag.Int64("seed", 2003, "seed of every generated input; run i of -runs uses seed+i")
		secs     = flag.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		runs     = flag.Int("runs", 1, "runs per workload, for run-to-run spread in -compare")
		repoFlag = flag.String("repo", "", "root of the lbsq repository (default: found above the working directory)")
		out      = flag.String("out", "", "result file (default: <repo>/bench/out/result.json)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments and exit 1 if any metric regressed")
	)
	flag.Parse()
	if err := run(*workload, *seed, *secs, *trace == 1, *runs, *repoFlag, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "lbsq-loadgen: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs float64, trace bool, runs int, repo, out string, compare bool, args []string) error {
	if repo == "" {
		wd, err := os.Getwd()
		if err != nil {
			return err
		}
		if repo, err = loadgen.FindRepo(wd); err != nil {
			return err
		}
	}
	man, err := loadgen.LoadManifest(repo)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		regressed, err := loadgen.Compare(os.Stdout, man, args[0], args[1])
		if err != nil {
			return err
		}
		if regressed {
			return fmt.Errorf("at least one metric regressed")
		}
		return nil
	}
	if secs <= 0 {
		secs = float64(man.RunSeconds)
	}
	specs := loadgen.Specs
	if workload != "" {
		s, ok := loadgen.FindSpec(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		specs = []loadgen.Spec{s}
	}
	if out == "" {
		out = filepath.Join(repo, "bench", "out", "result.json")
	}

	// SIGINT/SIGTERM cancel the run; every child lives in its own process
	// group and is killed on the way out, so nothing is left behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	build := filepath.Join(repo, ".bench_build")
	bin, workRoot := filepath.Join(build, "bin"), filepath.Join(build, "work")
	for _, dir := range []string{bin, workRoot, filepath.Dir(out)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	serverBin := filepath.Join(bin, "lbsq-server")
	if err := loadgen.GoBuild(ctx, repo, "./cmd/lbsq-server", serverBin); err != nil {
		return err
	}
	probesBin := filepath.Join(bin, "lbsq-probes")
	if trace {
		if err := loadgen.GoBuild(ctx, filepath.Join(repo, "bench"), "./cmd/lbsq-probes", probesBin); err != nil {
			return err
		}
	}

	file := &loadgen.ResultFile{Stamp: loadgen.Stamp{
		GitSHA: gitSHA(ctx, repo), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: secs, RefRates: map[string]float64{},
	}}
	defs := man.EndToEnd
	if trace {
		defs = man.PerLayer
	}
	var last *loadgen.Result
	for _, s := range specs {
		file.Stamp.RefRates[s.Name] = s.RefRate
		for i := 0; i < runs; i++ {
			work, err := os.MkdirTemp(workRoot, "run-")
			if err != nil {
				return err
			}
			opts := loadgen.Options{
				Seed: seed + int64(i), Seconds: secs, Trace: trace, Log: os.Stderr,
				Env: loadgen.Env{ServerBin: serverBin, WorkDir: work},
			}
			if trace {
				opts.TracePath = filepath.Join(filepath.Dir(out), "trace-"+s.Name+".json")
				opts.Probes = func(ctx context.Context) (map[string]loadgen.Metric, []loadgen.Span, error) {
					return runProbes(ctx, probesBin, opts.Seed, work)
				}
			}
			res, err := loadgen.RunWorkload(ctx, s, opts)
			if err != nil {
				return fmt.Errorf("%s: %w (server logs kept in %s)", s.Name, err, work)
			}
			if err := os.RemoveAll(work); err != nil {
				return err
			}
			if _, err := loadgen.DriverLine(res, defs); err != nil {
				return err
			}
			loadgen.PrintResult(os.Stdout, res, defs)
			file.Runs = append(file.Runs, res)
			last = res
		}
	}
	if err := loadgen.WriteResultFile(out, file); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", out)
	if workload != "" {
		line, err := loadgen.DriverLine(last, defs)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	return nil
}

// runProbes runs the layer probes in a child process, so that their
// fixtures never sit in the generator's heap while it is timing servers,
// and so that a probe broken by a later refactoring of some internal
// package cannot take the end-to-end run down with it.
func runProbes(ctx context.Context, bin string, seed int64, work string) (map[string]loadgen.Metric, []loadgen.Span, error) {
	cmd := exec.CommandContext(ctx, bin, "-seed", fmt.Sprint(seed), "-work", work)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	data, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	var out struct {
		Metrics map[string]loadgen.Metric `json:"metrics"`
		Spans   []loadgen.Span            `json:"spans"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, nil, err
	}
	return out.Metrics, out.Spans, nil
}

// gitSHA stamps the result with the commit, when the checkout has one.
func gitSHA(ctx context.Context, repo string) string {
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = repo
	data, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
