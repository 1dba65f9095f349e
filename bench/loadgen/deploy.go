package loadgen

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"lbsq"
	"lbsq/internal/dataset"
	"lbsq/internal/dist"
)

// Env is where a run finds its server binary and keeps its files.
type Env struct {
	ServerBin string // built lbsq-server
	WorkDir   string // per-run scratch directory (dataset file, data dirs, server logs)
}

// Deployment is the set of server processes of one workload.
type Deployment struct {
	Front *Proc   // the process the traffic is sent to
	Data  []*Proc // the processes that hold an index (node accesses are read from these)
	All   []*Proc

	// SetupSeconds is launch of the first process → the front process
	// reports the full count on /v1/info: dataset load, bulk load, store
	// creation or cluster seeding included.
	SetupSeconds float64

	args    []string // front process arguments, for the restart check
	dataDir string
}

// Kill stops every process of the deployment and waits for them.
func (d *Deployment) Kill() {
	for _, p := range d.All {
		p.Kill()
	}
}

// deploy launches the workload's servers and waits until they serve the
// whole dataset. tag keeps repeated set-ups of one run apart on disk.
func deploy(ctx context.Context, env Env, s Spec, dataFile, tag string) (d *Deployment, err error) {
	d = &Deployment{}
	defer func() {
		if err != nil {
			d.Kill()
		}
	}()
	addrs, err := freeAddrs(4)
	if err != nil {
		return d, err
	}
	start := time.Now()
	if s.Cluster {
		var urls []string
		for i := 0; i < 3; i++ {
			p, err := startServer(env.ServerBin, env.WorkDir, fmt.Sprintf("%s-node%d", tag, i), addrs[i+1], "-n", "0")
			if err != nil {
				return d, err
			}
			d.All, d.Data = append(d.All, p), append(d.Data, p)
			urls = append(urls, "http://"+p.Addr)
		}
		for _, p := range d.Data {
			if err := p.waitCount(ctx, 0); err != nil {
				return d, err
			}
		}
		// -placement spatial: the default hash ring leaves the third of
		// three nodes empty (see the README's baselines).
		d.args = append([]string{"-cluster", strings.Join(urls, ","), "-placement", "spatial",
			"-seed-cluster", "-load", dataFile}, s.Args...)
	} else {
		d.args = append([]string{"-load", dataFile}, s.Args...)
		if s.Durable {
			d.dataDir = filepath.Join(env.WorkDir, tag+"-data")
			d.args = append(d.args, "-data-dir", d.dataDir)
		}
	}
	front, err := startServer(env.ServerBin, env.WorkDir, tag+"-front", addrs[0], d.args...)
	if err != nil {
		return d, err
	}
	d.Front = front
	d.All = append(d.All, front)
	if !s.Cluster {
		d.Data = []*Proc{front}
	}
	if err := front.waitCount(ctx, s.N); err != nil {
		return d, err
	}
	d.SetupSeconds = time.Since(start).Seconds()
	return d, nil
}

// restartFront kills the front process with SIGKILL and starts it again
// on the same data directory, waiting until it reports want points.
func (d *Deployment) restartFront(ctx context.Context, env Env, tag string, want int) error {
	d.Front.Kill()
	addrs, err := freeAddrs(1)
	if err != nil {
		return err
	}
	p, err := startServer(env.ServerBin, env.WorkDir, tag+"-restarted", addrs[0], d.args...)
	if err != nil {
		return err
	}
	d.All = append(d.All, p)
	d.Front, d.Data = p, []*Proc{p}
	return p.waitCount(ctx, want)
}

// nodeAccesses sums BackendStats.NodeAccesses — the raw index counter —
// over the data-holding processes, read with the shard RPC's stats op.
func (d *Deployment) nodeAccesses(ctx context.Context, universe lbsq.Rect) (int64, error) {
	var total int64
	for _, p := range d.Data {
		c := NewConn(p.Addr)
		st, err := dist.NewRemoteBackend("http://"+p.Addr, universe, shardTransport{c}).Stats(ctx)
		c.Close()
		if err != nil {
			return 0, err
		}
		total += st.NodeAccesses
	}
	return total, nil
}

// sumLive adds up one /proc reading over the processes still running.
func (d *Deployment) sumLive(read func(pid int) (float64, error)) (float64, error) {
	total := 0.0
	for _, p := range d.All {
		if p.exited() {
			continue
		}
		v, err := read(p.PID())
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// cpuSeconds sums utime+stime over all processes.
func (d *Deployment) cpuSeconds() (float64, error) { return d.sumLive(cpuSeconds) }

// peakRSSMiB sums VmHWM over all processes.
func (d *Deployment) peakRSSMiB() (float64, error) { return d.sumLive(peakRSSMiB) }

// scrapeProcs sums /v1/metrics over the given live processes.
func scrapeProcs(ctx context.Context, procs []*Proc) (Scrape, error) {
	total := Scrape{}
	for _, p := range procs {
		if p.exited() {
			continue
		}
		s, err := scrapeProc(ctx, p.Addr)
		if err != nil {
			return nil, err
		}
		total.Add(s)
	}
	return total, nil
}

// writeDataset stores the generated dataset where the servers load it.
func writeDataset(dir string, d *dataset.Dataset) (string, error) {
	path := filepath.Join(dir, "dataset.lbsq")
	if err := dataset.SaveFile(path, d); err != nil {
		return "", err
	}
	return path, nil
}
