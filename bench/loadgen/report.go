package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// MetricDef is one metric as BENCHMARK.json declares it.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Manifest is BENCHMARK.json: the contract the driver holds the
// benchmark to, and the only place the regression bounds live.
type Manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// LoadManifest reads BENCHMARK.json from the repo root.
func LoadManifest(repo string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// Stamp records where and how a result file was produced.
type Stamp struct {
	GitSHA     string             `json:"git_sha"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	RefRates   map[string]float64 `json:"reference_rates_ops_s"`
}

// ResultFile is bench/out/result.json: every run of one invocation.
type ResultFile struct {
	Stamp Stamp     `json:"stamp"`
	Runs  []*Result `json:"runs"`
}

// WriteResultFile stores f at path.
func WriteResultFile(path string, f *ResultFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// PrintResult writes one run's metrics by name with their units, in the
// manifest's order, then the ungated numbers and notes.
func PrintResult(w io.Writer, r *Result, defs []MetricDef) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (%s = %.4f)\n", k, r.Info[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// DriverLine is the last line the driver reads: exactly the keys correct,
// attempted, failed and metrics, the latter holding exactly the metrics
// defs names.
func DriverLine(r *Result, defs []MetricDef) ([]byte, error) {
	metrics := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", r.Workload, d.Name)
		}
		metrics[d.Name] = m
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// values groups the untraced runs of a file by workload and metric.
func (f *ResultFile) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// Compare prints one row per workload × end-to-end metric for two result
// files and reports whether any row regressed. A row is "unresolved"
// when either side's run-to-run spread (quartile distance over median)
// is wider than the metric's bound, "regressed" when b's median is worse
// than a's by more than the bound, else "ok". With a single run on a
// side there is no spread to judge, and the row is decided on the
// medians alone.
func Compare(w io.Writer, man *Manifest, pathA, pathB string) (regressed bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	va, vb := a.values(), b.values()
	fmt.Fprintf(w, "a = %s (%s)\nb = %s (%s)\n", pathA, a.Stamp.GitSHA, pathB, b.Stamp.GitSHA)
	fmt.Fprintf(w, "%-18s %-22s %12s %12s %22s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "b/a (base a)", "spread", "bound", "verdict")
	for _, wl := range man.Workloads {
		for _, d := range man.EndToEnd {
			xa, xb := va[wl.Name][d.Name], vb[wl.Name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-18s %-22s missing on one side\n", wl.Name, d.Name)
				continue
			}
			ma, mb := Median(xa), Median(xb)
			spread := math.Max(nanZero(Spread(xa)), nanZero(Spread(xb)))
			worse := (mb - ma) / math.Abs(ma)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-22s %12.4f %12.4f %10.4f of %-9.4g %7.1f%% %7.1f%%  %s\n",
				wl.Name, d.Name, ma, mb, mb/ma, ma, 100*spread, 100*d.Bound, verdict)
		}
	}
	return regressed, nil
}

func nanZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
