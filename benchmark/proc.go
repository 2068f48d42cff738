package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procs tracks every subprocess the benchmark starts, so a failure or a
// signal can stop them all and wait for each before the benchmark exits.
type procs struct {
	mu   sync.Mutex
	live map[*proc]struct{}
}

// proc is one started subprocess.
type proc struct {
	cmd  *exec.Cmd
	name string
	log  string // file holding its stdout+stderr
	done chan struct{}
	err  error
	hwm  atomic.Int64 // highest VmHWM seen, KiB
}

func newProcs() *procs { return &procs{live: map[*proc]struct{}{}} }

// start launches bin with args, its output going to logPath. When
// stdout is non-nil the child's standard output goes there instead (its
// standard error still goes to the log).
func (ps *procs) start(name, logPath string, stdout *os.File, bin string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if stdout != nil {
		cmd.Stdout = stdout
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{cmd: cmd, name: name, log: logPath, done: make(chan struct{})}
	ps.mu.Lock()
	ps.live[p] = struct{}{}
	ps.mu.Unlock()
	go p.watchRSS()
	go func() {
		p.err = cmd.Wait()
		ps.mu.Lock()
		delete(ps.live, p)
		ps.mu.Unlock()
		close(p.done)
	}()
	return p, nil
}

// wait blocks until the process has exited on its own.
func (p *proc) wait(timeout time.Duration) error {
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%s: %w (log: %s)", p.name, p.err, tailOf(p.log))
		}
		return nil
	case <-time.After(timeout):
		p.stop()
		return fmt.Errorf("%s: still running after %s (log: %s)", p.name, timeout, tailOf(p.log))
	}
}

// stop asks the process to terminate, kills it if it does not within
// five seconds, and returns once it has ended.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.sampleRSS()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// peakRSSMB is the ended process's peak resident set size. It is the
// VmHWM line of /proc/<pid>/status, sampled while the process ran and
// once more just before it was told to stop: ru_maxrss cannot be used,
// because on Linux a child starts with its parent's high-water mark.
func (p *proc) peakRSSMB() float64 {
	<-p.done
	return float64(p.hwm.Load()) / 1024
}

// sampleRSS records the process's current VmHWM.
func (p *proc) sampleRSS() {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return
	}
	if kb := vmHWM(b); kb > p.hwm.Load() {
		p.hwm.Store(kb)
	}
}

// watchRSS samples VmHWM every few milliseconds until the process ends,
// for processes that exit on their own.
func (p *proc) watchRSS() {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
			p.sampleRSS()
		}
	}
}

// vmHWM extracts the VmHWM value (KiB) from a /proc status file.
func vmHWM(status []byte) int64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// stopAll stops every live subprocess and waits for each.
func (ps *procs) stopAll() {
	ps.mu.Lock()
	live := make([]*proc, 0, len(ps.live))
	for p := range ps.live {
		live = append(live, p)
	}
	ps.mu.Unlock()
	for _, p := range live {
		p.stop()
	}
}

// tailOf returns the last few hundred bytes of a log file for error
// messages.
func tailOf(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return string(b)
}

// freePort asks the kernel for an unused loopback TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// server is a running bpmf-serve subprocess.
type server struct {
	*proc
	base    string        // http://127.0.0.1:port
	readyIn time.Duration // start → first ready /healthz
}

// startServer launches bpmf-serve on a free port and waits until
// /healthz reports ready.
func (ps *procs) startServer(bin, workDir, tag string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	t0 := time.Now()
	p, err := ps.start("bpmf-serve", filepath.Join(workDir, "serve-"+tag+".log"), nil, bin,
		append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, err
	}
	s := &server{proc: p, base: "http://" + addr}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for {
		if h, err := s.healthz(); err == nil && h.Ready {
			s.readyIn = time.Since(t0)
			return s, nil
		}
		if p.exited() {
			return nil, fmt.Errorf("bpmf-serve exited before it was ready (log: %s)", tailOf(p.log))
		}
		select {
		case <-ctx.Done():
			p.stop()
			return nil, fmt.Errorf("bpmf-serve not ready after 60s (log: %s)", tailOf(p.log))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Ready bool `json:"ready"`
}

var pollClient = &http.Client{Timeout: 2 * time.Second}

func (s *server) healthz() (health, error) {
	var h health
	resp, err := pollClient.Get(s.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}
