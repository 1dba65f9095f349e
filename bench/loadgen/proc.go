package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// FindRepo walks up from dir to the root of module lbsq.
func FindRepo(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module lbsq\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module lbsq above the working directory; pass -repo")
		}
		dir = parent
	}
}

// GoBuild compiles one main package of the module rooted at moduleDir
// into out.
func GoBuild(ctx context.Context, moduleDir, pkg, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = moduleDir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}

// freeAddrs probes n distinct free loopback ports. All probe listeners
// are held open until every port is known — closing one before probing
// the next lets the kernel hand the same port out twice. The ports are
// released before the servers bind them, so a collision needs another
// process to grab one of them within milliseconds.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	var listeners []net.Listener
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// Proc is one lbsq-server child in its own process group.
type Proc struct {
	Addr string // host:port it listens on
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// startServer launches bin listening on addr with args. Output goes to
// a log file under dir.
func startServer(bin, dir, name, addr string, args ...string) (*Proc, error) {
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// Its own process group, so Kill takes whatever it spawned with it;
	// and the kernel kills it should the generator die without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	p := &Proc{Addr: addr, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		// The exit status of a server we kill ourselves says nothing.
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// PID returns the child's process id.
func (p *Proc) PID() int { return p.cmd.Process.Pid }

// Kill sends SIGKILL to the child's process group and waits until the
// child has been reaped. It is safe to call more than once.
func (p *Proc) Kill() {
	// ESRCH after the child is gone is the expected outcome of a repeat.
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
	p.log.Close()
}

// exited reports whether the child has already terminated.
func (p *Proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the end of the child's log for error messages.
func (p *Proc) logTail() string {
	data, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// waitCount polls /v1/info on the process until it reports want points.
func (p *Proc) waitCount(ctx context.Context, want int) error {
	c := NewConn(p.Addr)
	defer c.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if body, err := c.Get(ctx, "/v1/info"); err == nil {
			var info struct {
				Count int `json:"count"`
			}
			if json.Unmarshal(body, &info) == nil && info.Count == want {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("server %s exited during set-up:\n%s", p.Addr, p.logTail())
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s not ready (want count %d):\n%s", p.Addr, want, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds returns utime+stime of the process.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed times in /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMiB returns VmHWM of the process in MiB.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
