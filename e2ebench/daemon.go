package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one roledietd process with its own store directory.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	dir  string // work dir holding the store and the log
	args []string
	logf *os.File
	done chan error // receives the process's exit once
}

// startDaemon launches roledietd with default flags and a fresh store
// dir, and returns once /healthz answers 200.
func startDaemon(bin, work string, client *http.Client) (*daemon, error) {
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		dir:  dir,
		args: []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-store-dir", filepath.Join(dir, "store")},
		done: make(chan error, 1),
	}
	if d.logf, err = os.Create(filepath.Join(dir, "daemon.log")); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Stdout, d.cmd.Stderr = d.logf, d.logf
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		d.logf.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("roledietd exited during start: %v\n%s", err, d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("roledietd not healthy after 60s\n%s", d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain (SIGKILL after 20 s), and
// removes its work dir.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.logf.Close()
	os.RemoveAll(d.dir)
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logf.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuMs is the daemon's user+system CPU time so far.
func (d *daemon) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", s)
	}
	return float64(ut+st) * 10, nil
}

// peakRSSMB is the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	m := regexp.MustCompile(`VmHWM:\s+(\d+) kB`).FindSubmatch(b)
	if m == nil {
		return 0, fmt.Errorf("no VmHWM in /proc status")
	}
	kb, err := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024, err
}

// gomaxprocs reads the daemon's GOMAXPROCS off its start-up log line,
// which reports max-concurrent = 2 x GOMAXPROCS by default.
func (d *daemon) gomaxprocs() int {
	b, _ := os.ReadFile(d.logf.Name())
	m := regexp.MustCompile(`max-concurrent=(\d+)`).FindSubmatch(b)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n / 2
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newClient is the single closed-loop caller: one keep-alive
// connection, no transparent compression.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}
