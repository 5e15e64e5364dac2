// Package auditor runs the detection framework on a schedule — the
// paper's operating model ("the task of cleaning the RBAC database is
// expected to run periodically") as a managed background worker.
//
// The worker owns exactly one goroutine with an explicit lifecycle:
// created stopped, started on request, shut down deterministically
// (Shutdown signals the goroutine and waits for it to exit). Reports
// are delivered through a callback and retained for polling via
// Latest.
package auditor

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rbac"
)

// Config wires an Auditor.
type Config struct {
	// Source supplies the dataset snapshot for each run. It is called
	// once per audit from the worker goroutine; callers that mutate
	// their dataset concurrently should return a clone or otherwise
	// synchronise.
	Source func() *rbac.Dataset
	// Interval between scheduled audits; 0 disables the timer, leaving
	// only manual TriggerNow kicks.
	Interval time.Duration
	// Options configure each analysis run.
	Options core.Options
	// Sparse selects core.AnalyzeSparse, which returns the same report
	// as core.Analyze but rejects methods other than Role Diet.
	Sparse bool
	// OnReport, when set, observes every completed audit from the
	// worker goroutine.
	OnReport func(*core.Report)
	// OnError, when set, observes audit failures; without it failures
	// are retained silently (see LastError).
	OnError func(error)
}

// Auditor periodically audits an RBAC dataset.
type Auditor struct {
	cfg Config

	mu      sync.Mutex
	latest  *core.Report
	lastErr error
	runs    int

	trigger chan struct{}
	stop    chan struct{}
	done    chan struct{}
	started bool
	stopped bool
}

// New validates the configuration and returns a stopped auditor.
func New(cfg Config) (*Auditor, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("auditor: nil Source")
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("auditor: negative interval %v", cfg.Interval)
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	return &Auditor{
		cfg:     cfg,
		trigger: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}, nil
}

// Start launches the worker goroutine. Starting twice or after
// Shutdown is an error.
func (a *Auditor) Start() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.started {
		return fmt.Errorf("auditor: already started")
	}
	if a.stopped {
		return fmt.Errorf("auditor: already shut down")
	}
	a.started = true
	go a.loop()
	return nil
}

// loop is the worker: it audits on the interval tick and on manual
// triggers, and exits when Shutdown closes stop.
func (a *Auditor) loop() {
	defer close(a.done)
	var tick <-chan time.Time
	if a.cfg.Interval > 0 {
		ticker := time.NewTicker(a.cfg.Interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-a.stop:
			return
		case <-tick:
			a.runOnce()
		case <-a.trigger:
			a.runOnce()
		}
	}
}

// runOnce performs one audit.
func (a *Auditor) runOnce() {
	ds := a.cfg.Source()
	var (
		rep *core.Report
		err error
	)
	if a.cfg.Sparse {
		rep, err = core.AnalyzeSparse(ds, a.cfg.Options)
	} else {
		rep, err = core.Analyze(ds, a.cfg.Options)
	}

	a.mu.Lock()
	a.runs++
	if err != nil {
		a.lastErr = err
	} else {
		a.latest = rep
		a.lastErr = nil
	}
	a.mu.Unlock()

	if err != nil {
		if a.cfg.OnError != nil {
			a.cfg.OnError(err)
		}
		return
	}
	if a.cfg.OnReport != nil {
		a.cfg.OnReport(rep)
	}
}

// TriggerNow requests an immediate audit. If one is already queued the
// call coalesces with it. Triggering a stopped auditor is a no-op.
func (a *Auditor) TriggerNow() {
	select {
	case a.trigger <- struct{}{}:
	default:
	}
}

// Latest returns the most recent successful report (nil before the
// first success).
func (a *Auditor) Latest() *core.Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.latest
}

// LastError returns the most recent run's error, or nil if it
// succeeded.
func (a *Auditor) LastError() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

// Runs returns the number of completed audit attempts.
func (a *Auditor) Runs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.runs
}

// Shutdown stops the worker and waits for it to exit. It is safe to
// call multiple times; calls after the first return immediately. A
// never-started auditor shuts down trivially.
func (a *Auditor) Shutdown() {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		<-a.done
		return
	}
	a.stopped = true
	started := a.started
	a.mu.Unlock()

	close(a.stop)
	if !started {
		close(a.done)
		return
	}
	<-a.done
}
