// Package jobs runs long analyses asynchronously: a bounded worker
// pool drains a bounded submission queue, each job reports monotonic
// (stage, fraction) progress while it runs, and finished results are
// kept in an in-memory store until a TTL expires them.
//
// The package is deliberately engine-agnostic: a job is any
// func(ctx, progress) (result, error). The HTTP layer wraps the
// detection engine's entry points into such tasks and exposes the
// lifecycle as /v1/jobs; nothing here imports core.
//
// Lifecycle:
//
//	Submit -> queued -> running -> done | failed | canceled
//
// Cancel works in every non-terminal state: a queued job is retired
// without ever occupying a worker, a running job has its context
// cancelled and the engine's strided cancellation polling returns the
// worker within a bounded amount of work. Terminal jobs stay readable
// until ResultTTL after they finished, then the janitor (and lazy
// checks on access) garbage-collects them.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ttl"
)

// Status is a job's lifecycle state.
type Status string

// The lifecycle states. StatusDone, StatusFailed and StatusCanceled
// are terminal.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Progress is a job's last reported position.
type Progress struct {
	// Stage names the phase the job is in (engine stage names, plus
	// "queued" before a worker picks the job up).
	Stage string `json:"stage"`
	// Fraction is overall completion in [0, 1], non-decreasing over the
	// job's lifetime; 1 exactly when the job is done.
	Fraction float64 `json:"fraction"`
}

// Task is the unit of asynchronous work. It must honour ctx
// cancellation and may call progress (possibly concurrently with
// status reads) to report advancement; progress is never nil.
type Task func(ctx context.Context, progress func(stage string, fraction float64)) (any, error)

// Snapshot is an immutable, JSON-ready view of a job.
type Snapshot struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	Status     Status     `json:"status"`
	Progress   Progress   `json:"progress"`
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

// Sentinel errors returned by Manager methods.
var (
	// ErrQueueFull means the submission queue is at capacity; callers
	// should shed the request (the HTTP layer maps it to 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotFound means no live job has the given id (unknown, or
	// already expired and collected).
	ErrNotFound = errors.New("jobs: not found")
	// ErrFinished means the job already reached a terminal state, so
	// cancellation has nothing to do.
	ErrFinished = errors.New("jobs: already finished")
	// ErrClosed means the manager has been shut down.
	ErrClosed = errors.New("jobs: manager closed")
)

// Options configures a Manager.
type Options struct {
	// Workers is the worker-pool size; defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; Submit beyond it
	// returns ErrQueueFull. Defaults to 64.
	QueueDepth int
	// ResultTTL is how long a terminal job (result or error included)
	// stays readable after finishing. Defaults to 15 minutes.
	ResultTTL time.Duration
	// BaseContext is the root every job context derives from;
	// cancelling it (daemon drain) cancels all queued and running jobs.
	// Defaults to context.Background().
	BaseContext context.Context
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.ResultTTL <= 0 {
		o.ResultTTL = 15 * time.Minute
	}
	if o.BaseContext == nil {
		o.BaseContext = context.Background()
	}
	return o
}

// Job is one asynchronous run. All state access goes through the
// mutex; Snapshot and Result give callers consistent views.
type Job struct {
	id     string
	kind   string
	task   Task
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	status   Status
	progress Progress
	result   any
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Snapshot returns the job's current state as an immutable view.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:        j.id,
		Kind:      j.kind,
		Status:    j.status,
		Progress:  j.progress,
		CreatedAt: j.created,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}

// Result returns the job's outcome once terminal: (result, nil) for a
// done job, (nil, err) for a failed or canceled one. Before that it
// returns (nil, nil) with finished == false.
func (j *Job) Result() (result any, err error, finished bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.status.Terminal() {
		return nil, nil, false
	}
	return j.result, j.err, true
}

// setProgress records an update, clamped to [0, 1] and kept monotonic:
// a fraction below the last reported one is lifted to it, so observers
// polling concurrently with the engine never see progress move
// backwards even if stage spans overlap at their boundaries.
func (j *Job) setProgress(stage string, fraction float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusRunning {
		return
	}
	if fraction < j.progress.Fraction {
		fraction = j.progress.Fraction
	}
	if fraction > 1 {
		fraction = 1
	}
	j.progress = Progress{Stage: stage, Fraction: fraction}
}

// markRunning transitions queued -> running; it fails when the job was
// cancelled while waiting, telling the worker to skip it.
func (j *Job) markRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = now
	j.progress = Progress{Stage: "running", Fraction: 0}
	return true
}

// finish records the task outcome. Cancellation (the job's context
// ended) maps to StatusCanceled, any other error to StatusFailed.
func (j *Job) finish(result any, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.finished = now
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = result
		j.progress = Progress{Stage: "done", Fraction: 1}
	case errors.Is(err, context.Canceled):
		j.status = StatusCanceled
		j.err = err
	default:
		j.status = StatusFailed
		j.err = err
	}
}

// cancelQueued retires a job that never ran.
func (j *Job) cancelQueued(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusCanceled
	j.err = context.Canceled
	j.finished = now
	return true
}

// expired reports whether the job finished longer than maxAge ago. The
// lazy check in Get makes an expired job unreachable immediately; the
// shared sweeper only bounds memory for abandoned ids.
func (j *Job) expired(now time.Time, maxAge time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal() && ttl.Expired(j.finished, now, maxAge)
}

// Err returns the job's error (nil while queued/running or when done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Manager owns the worker pool, the queue, and the job store.
type Manager struct {
	opts    Options
	base    context.Context
	cancel  context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup
	sweeper *ttl.Sweeper

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool
}

// NewManager starts the worker pool and the TTL janitor.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	base, cancel := context.WithCancel(opts.BaseContext)
	m := &Manager{
		opts:   opts,
		base:   base,
		cancel: cancel,
		queue:  make(chan *Job, opts.QueueDepth),
		jobs:   make(map[string]*Job),
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	// Lazy expiry in Get covers polled jobs; the sweep bounds memory
	// for abandoned ones.
	m.sweeper = ttl.NewSweeper(base, ttl.Interval(opts.ResultTTL), m.sweep)
	return m
}

// Submit enqueues a task. Alongside the job it returns the job's
// queued snapshot, taken before the handoff to the worker pool: a
// worker may flip the job to running the moment it is enqueued, so
// callers answering "202 queued" must render this snapshot rather than
// call Snapshot afterwards. It returns ErrQueueFull when the queue is
// at capacity — backpressure the caller must surface, not absorb — and
// ErrClosed after Close.
func (m *Manager) Submit(kind string, task Task) (*Job, Snapshot, error) {
	if task == nil {
		return nil, Snapshot{}, fmt.Errorf("jobs: nil task")
	}
	ctx, cancel := context.WithCancel(m.base)
	j := &Job{
		id:       newID(),
		kind:     kind,
		task:     task,
		ctx:      ctx,
		cancel:   cancel,
		status:   StatusQueued,
		progress: Progress{Stage: "queued", Fraction: 0},
		created:  time.Now(),
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, Snapshot{}, ErrClosed
	}
	m.jobs[j.id] = j
	queued := j.Snapshot()
	m.mu.Unlock()

	select {
	case m.queue <- j:
		return j, queued, nil
	default:
		m.mu.Lock()
		delete(m.jobs, j.id)
		m.mu.Unlock()
		cancel()
		return nil, Snapshot{}, ErrQueueFull
	}
}

// Get returns a live job by id. Jobs whose TTL has lapsed are
// collected on access and reported as absent.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	if j.expired(time.Now(), m.opts.ResultTTL) {
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		return nil, false
	}
	return j, true
}

// Cancel aborts a job: queued jobs are retired immediately, running
// jobs have their context cancelled (the worker frees up as soon as
// the engine's cancellation polling observes it). Returns ErrNotFound
// for unknown/expired ids and ErrFinished for terminal jobs.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return ErrNotFound
	}
	if j.cancelQueued(time.Now()) {
		j.cancel()
		return nil
	}
	j.mu.Lock()
	terminal := j.status.Terminal()
	j.mu.Unlock()
	if terminal {
		return ErrFinished
	}
	j.cancel()
	return nil
}

// Len reports how many jobs the store currently holds (all states).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// List snapshots every live job (queued, running, and terminal jobs
// still inside their TTL), oldest first, ties broken by id so the
// order is stable across calls.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	live := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		live = append(live, j)
	}
	m.mu.Unlock()
	now := time.Now()
	out := make([]Snapshot, 0, len(live))
	for _, j := range live {
		if j.expired(now, m.opts.ResultTTL) {
			continue
		}
		out = append(out, j.Snapshot())
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].CreatedAt.Equal(out[k].CreatedAt) {
			return out[i].CreatedAt.Before(out[k].CreatedAt)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Close stops accepting submissions, cancels every queued and running
// job, and waits for the workers and janitor to exit.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		m.sweeper.Stop()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
	m.sweeper.Stop()
}

// worker drains the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.base.Done():
			// Drain what's already queued so those jobs terminate as
			// canceled instead of staying queued forever.
			for {
				select {
				case j := <-m.queue:
					j.cancelQueued(time.Now())
				default:
					return
				}
			}
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// runJob executes one job, converting panics into failures so a
// poisoned dataset cannot take a worker (or the process) down.
func (m *Manager) runJob(j *Job) {
	if !j.markRunning(time.Now()) {
		j.cancel() // cancelled while queued; release the context
		return
	}
	defer j.cancel()
	defer func() {
		if v := recover(); v != nil {
			j.finish(nil, fmt.Errorf("jobs: task panic: %v", v), time.Now())
		}
	}()
	result, err := j.task(j.ctx, j.setProgress)
	// A task that swallowed the cancellation still terminates as
	// canceled, keeping status consistent with the context.
	if err == nil && j.ctx.Err() != nil {
		err = j.ctx.Err()
	}
	j.finish(result, err, time.Now())
}

// sweep collects expired jobs; it is the ttl.Sweeper's callback.
func (m *Manager) sweep(now time.Time) {
	m.mu.Lock()
	for id, j := range m.jobs {
		if j.expired(now, m.opts.ResultTTL) {
			delete(m.jobs, id)
		}
	}
	m.mu.Unlock()
}

// newID returns a 96-bit random hex id.
func newID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}
