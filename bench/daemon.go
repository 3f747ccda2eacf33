package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// janitor owns everything a run must not leave behind: daemon subprocesses
// and temp directories. sweep runs on every exit path (normal return, error,
// panic, SIGINT/SIGTERM) and is idempotent.
type janitor struct {
	mu      sync.Mutex
	daemons map[*daemon]struct{}
	dirs    []string
}

func (j *janitor) track(d *daemon) {
	j.mu.Lock()
	if j.daemons == nil {
		j.daemons = make(map[*daemon]struct{})
	}
	j.daemons[d] = struct{}{}
	j.mu.Unlock()
}

func (j *janitor) untrack(d *daemon) {
	j.mu.Lock()
	delete(j.daemons, d)
	j.mu.Unlock()
}

func (j *janitor) tempDir(parent, pattern string) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	j.mu.Lock()
	j.dirs = append(j.dirs, dir)
	j.mu.Unlock()
	return dir, nil
}

func (j *janitor) sweep() {
	j.mu.Lock()
	ds := make([]*daemon, 0, len(j.daemons))
	for d := range j.daemons {
		ds = append(ds, d)
	}
	dirs := j.dirs
	j.dirs = nil
	j.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// daemon is one quarcd subprocess listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	jan  *janitor
	done chan struct{} // closed once Wait returned
	// peak is the VmHWM read just before the process was stopped.
	peak float64
}

// startDaemon launches the quarcd binary with its default flags plus -quiet
// (and -data-dir when dataDir is set) on a free loopback port and waits for
// /healthz. The port is picked by binding :0 and releasing it, so a rare
// lost race is retried on another port.
func (e *env) startDaemon(dataDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := e.startDaemonOnce(dataDir)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (e *env) startDaemonOnce(dataDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	args := []string{"-addr", addr, "-quiet"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	logf, err := os.OpenFile(filepath.Join(e.outDir, "quarcd-"+e.workload+".log"),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.quarcd, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start quarcd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, jan: e.jan, done: make(chan struct{})}
	e.jan.track(d)
	go func() {
		cmd.Wait()
		close(d.done)
	}()

	deadline := time.Now().Add(10 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			d.kill()
			return nil, fmt.Errorf("quarcd exited before /healthz (see %s)", logf.Name())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("quarcd not healthy on %s within 10s", addr)
}

// kill is the crash: SIGKILL, then wait until the process is gone.
func (d *daemon) kill() { d.end(syscall.SIGKILL) }

// stop is the polite shutdown: SIGTERM, escalating to SIGKILL after 5 s.
func (d *daemon) stop() { d.end(syscall.SIGTERM) }

func (d *daemon) end(sig syscall.Signal) {
	select {
	case <-d.done:
	default:
		if hwm := peakRSSMiB(d.cmd.Process.Pid); hwm > 0 {
			d.peak = hwm
		}
		d.cmd.Process.Signal(sig)
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close() // a second Close just returns an error
	d.jan.untrack(d)
}

// counters scrapes /metrics into name -> value.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}
