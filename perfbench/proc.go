package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bilsh/internal/vec"
)

// gate collects correctness failures and the attempted/failed counts.
// fail is called from the load generator's connections concurrently.
type gate struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []string
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.errs) < 20 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// add counts requests (queries, for /batch) attempted and failed.
func (g *gate) add(attempted, failed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted += attempted
	g.failed += failed
}

func (g *gate) ok() bool { return len(g.errs) == 0 && g.failed == 0 && g.attempted > 0 }

// Fingerprint identifies the machine, toolchain and code a result came
// from; compare mode refuses to compare results whose shapes differ.
type Fingerprint struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	// GOMAXPROCS of the benchmark process and of every server it starts.
	GOMAXPROCS       int     `json:"gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	GOARCH           string  `json:"goarch"`
	GoVersion        string  `json:"go_version"`
	Kernel           string  `json:"kernel"`
	Source           string  `json:"source"`
	LoadgenLateMs    float64 `json:"loadgen_late_ms"`
	// StealFrac is the share of CPU time the hypervisor gave to other
	// guests during the measured phase: high values mark a noisy run.
	StealFrac float64 `json:"steal_frac"`
}

// shape is the part of the fingerprint two comparable results share.
func (f Fingerprint) shape() string {
	return fmt.Sprintf("%s|%d|%d|%d|%s|%s", f.CPU, f.NProc, f.GOMAXPROCS, f.ServerGOMAXPROCS, f.GOARCH, f.Kernel)
}

// procs is the GOMAXPROCS of this process and of every server it starts.
func procs() int { return runtime.NumCPU() }

func fingerprint() Fingerprint {
	return Fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: procs(),
		GOARCH: runtime.GOARCH, GoVersion: runtime.Version(), Kernel: vec.KernelName(),
		Source: sourceHash(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash stands in for the commit (the checkout may not be a git
// repository): SHA-256 over the paths and bytes of every Go source file
// and go.mod of the program under test.
func sourceHash() string {
	var files []string
	for _, root := range []string{"cmd", "internal"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, "go.mod")
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// proc is one bilsh child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	url  string
	done chan struct{}
	err  error
}

var addrRE = regexp.MustCompile(`on http://([0-9.]+:[0-9]+)`)

func (r *run) path(name string) string { return filepath.Join(r.dir, name) }

// bilshRun runs one bilsh command to completion.
func (r *run) bilshRun(args ...string) error {
	cmd := exec.Command(r.bilsh, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs()))
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("bilsh %s: %v\n%s", strings.Join(args, " "), err, tail(out))
	}
	return nil
}

// start launches a bilsh server and waits until it prints its bound
// address and answers /healthz.
func (r *run) start(name string, args ...string) (*proc, error) {
	logPath := r.path(name + ".log")
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.bilsh, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs()))
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	r.procs = append(r.procs, p)
	go func() {
		p.err = cmd.Wait()
		lf.Close()
		close(p.done)
	}()
	deadline := time.Now().Add(2 * time.Minute)
	for p.url == "" {
		if b, _ := os.ReadFile(logPath); b != nil {
			if m := addrRE.FindSubmatch(b); m != nil {
				p.url = "http://" + string(m[1])
				break
			}
		}
		select {
		case <-p.done:
			b, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("%s exited before serving: %v\n%s", name, p.err, tail(b))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s did not announce an address within 2m", name)
		}
	}
	if err := waitHealthy(p, deadline); err != nil {
		return nil, err
	}
	return p, nil
}

func waitHealthy(p *proc, deadline time.Time) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil}}
	for {
		resp, err := hc.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited: %v", p.name, p.err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: /healthz not ready within deadline", p.name)
		}
	}
}

// kill sends sig and waits for the process to exit (SIGKILL after 10s).
func (p *proc) kill(sig syscall.Signal) {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll terminates every child still running and waits for it.
func (r *run) stopAll() {
	for _, p := range r.procs {
		p.kill(syscall.SIGTERM)
	}
	r.procs = nil
}

// forget drops stopped processes from the run's list.
func (r *run) forget(ps ...*proc) {
	keep := r.procs[:0]
	for _, p := range r.procs {
		drop := false
		for _, q := range ps {
			drop = drop || p == q
		}
		if !drop {
			keep = append(keep, p)
		}
	}
	r.procs = keep
}

// procStat is a process's CPU ticks and page faults from /proc/<pid>/stat.
type procStat struct {
	cpuTicks       int64
	minflt, majflt int64
}

func readStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesised command name; field 3 is index 0.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return procStat{}, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return procStat{}, errors.New("short /proc stat")
	}
	num := func(k int) int64 { v, _ := strconv.ParseInt(f[k], 10, 64); return v }
	// minflt=10, majflt=12, utime=14, stime=15 (1-based) → -3.
	return procStat{cpuTicks: num(11) + num(12), minflt: num(7), majflt: num(9)}, nil
}

// statAll sums procStat over ps.
func statAll(ps []*proc) (procStat, error) {
	var s procStat
	for _, p := range ps {
		st, err := readStat(p.cmd.Process.Pid)
		if err != nil {
			return s, fmt.Errorf("%s: %w", p.name, err)
		}
		s.cpuTicks += st.cpuTicks
		s.minflt += st.minflt
		s.majflt += st.majflt
	}
	return s, nil
}

// rssMiB sums the resident set (VmRSS) over ps.
func rssMiB(ps []*proc) (float64, error) {
	var kb int64
	for _, p := range ps {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
				v, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
				kb += v
			}
		}
		f.Close()
	}
	return float64(kb) / 1024, nil
}

// cpuTimes returns the machine's total and steal ticks from /proc/stat.
func cpuTimes() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return total, steal
}

// clockTick is the kernel's USER_HZ, 100 on every Linux ABI Go supports.
const clockTick = 100

func tail(b []byte) string {
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// timed runs fn and returns its wall time in seconds.
func timed(fn func() error) (float64, error) {
	t := time.Now()
	err := fn()
	return time.Since(t).Seconds(), err
}

// setupMedian runs setup reps times, keeping the last deployment
// running, and reports the median wall time as setup_s.
func (r *run) setupMedian(reps int, setup func() ([]*proc, error)) ([]*proc, error) {
	var times []float64
	var ps []*proc
	for i := 0; i < reps; i++ {
		if i > 0 {
			for _, p := range ps {
				p.kill(syscall.SIGTERM)
			}
			r.forget(ps...)
		}
		var err error
		s, err := timed(func() error { var e error; ps, e = setup(); return e })
		if err != nil {
			return nil, err
		}
		times = append(times, s)
	}
	// Flush the set-up's file writes so their writeback does not land in
	// the measured phase.
	syscall.Sync()
	r.note("setup_s_all", times)
	r.progress("set up")
	if !r.trace {
		r.metric("setup_s", "s", median(times))
	}
	return ps, nil
}

// recoveryCycles is how many SIGKILL-and-restart cycles recovery_s is
// the median of. One restart's time varies by a third within a run on a
// small shared host, so fewer cycles let the median jump between runs.
const recoveryCycles = 15

// recoverMedian SIGKILLs the deployment and restarts it recoveryCycles
// times, reporting the median time from restart to healthy as recovery_s.
func (r *run) recoverMedian(ps []*proc, restart func() ([]*proc, error)) ([]*proc, error) {
	var times []float64
	for i := 0; i < recoveryCycles; i++ {
		for _, p := range ps {
			p.kill(syscall.SIGKILL)
		}
		r.forget(ps...)
		s, err := timed(func() error { var e error; ps, e = restart(); return e })
		if err != nil {
			return nil, err
		}
		times = append(times, s)
	}
	r.note("recovery_s_all", times)
	r.progress("recovered")
	r.metric("recovery_s", "s", median(times))
	return ps, nil
}

// serverCounter reads one counter from a server's JSON /metrics.
func serverCounter(url, name string) float64 {
	resp, err := (&http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{Proxy: nil}}).Get(url + "?format=json")
	if err != nil {
		return math.NaN()
	}
	defer resp.Body.Close()
	var body struct {
		Metrics []struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return math.NaN()
	}
	var sum float64
	for _, p := range body.Metrics {
		if p.Name == name && p.Value != nil {
			sum += *p.Value
		}
	}
	return sum
}
