package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitStatus polls a job until it reaches want or the deadline lapses.
func waitStatus(t *testing.T, j *Job, want Status) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := j.Snapshot()
		if s.Status == want {
			return s
		}
		if s.Status.Terminal() && want != s.Status {
			t.Fatalf("job reached terminal status %s, want %s (error %q)", s.Status, want, s.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job never reached status %s (last %+v)", want, j.Snapshot())
	return Snapshot{}
}

func TestJobRunsToCompletion(t *testing.T) {
	m := NewManager(Options{Workers: 2})
	defer m.Close()

	j, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		progress("half", 0.5)
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitStatus(t, j, StatusDone)
	if s.Progress.Fraction != 1 || s.Progress.Stage != "done" {
		t.Fatalf("final progress = %+v, want done/1", s.Progress)
	}
	if s.StartedAt == nil || s.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", s)
	}
	result, jerr, finished := j.Result()
	if !finished || jerr != nil || result != 42 {
		t.Fatalf("Result() = %v, %v, %v", result, jerr, finished)
	}
	got, ok := m.Get(j.ID())
	if !ok || got != j {
		t.Fatal("Get did not return the live job")
	}
}

func TestJobProgressMonotonic(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	var mu sync.Mutex
	var seen []float64
	record := func(j *Job) {
		mu.Lock()
		seen = append(seen, j.Snapshot().Progress.Fraction)
		mu.Unlock()
	}

	j, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		// Deliberately misbehaving task: regressions and overshoot must
		// be clamped by the store.
		progress("a", 0.3)
		progress("b", 0.1)
		progress("c", 2.0)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			record(j)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	waitStatus(t, j, StatusDone)
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("progress regressed: %v -> %v", seen[i-1], seen[i])
		}
	}
}

func TestJobFailure(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	boom := errors.New("boom")
	j, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitStatus(t, j, StatusFailed)
	if s.Error != "boom" {
		t.Fatalf("error = %q", s.Error)
	}
	if _, jerr, finished := j.Result(); !finished || !errors.Is(jerr, boom) {
		t.Fatalf("Result error = %v, %v", jerr, finished)
	}
}

func TestJobPanicBecomesFailure(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	j, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		panic("poisoned dataset")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusFailed)

	// The worker survived the panic and keeps serving.
	j2, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j2, StatusDone)
}

func TestCancelRunningJobFreesWorker(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	started := make(chan struct{})
	j, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusCanceled)

	// The single worker slot must be reusable after the cancellation.
	j2, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j2, StatusDone)

	if err := m.Cancel(j.ID()); !errors.Is(err, ErrFinished) {
		t.Fatalf("second cancel = %v, want ErrFinished", err)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 4})
	defer m.Close()

	release := make(chan struct{})
	blocker, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocker, StatusRunning)

	ran := make(chan struct{})
	queued, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		close(ran)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, queued, StatusCanceled)
	close(release)
	waitStatus(t, blocker, StatusDone)
	select {
	case <-ran:
		t.Fatal("cancelled queued job still ran")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSubmitQueueFull(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 1})
	defer m.Close()

	release := make(chan struct{})
	block := func(ctx context.Context, progress func(string, float64)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	running, _, err := m.Submit("analyze", block)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, running, StatusRunning)
	if _, _, err := m.Submit("analyze", block); err != nil {
		t.Fatalf("queued submit failed: %v", err)
	}
	if _, _, err := m.Submit("analyze", block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit = %v, want ErrQueueFull", err)
	}
	close(release)
}

func TestResultTTLExpiry(t *testing.T) {
	m := NewManager(Options{Workers: 1, ResultTTL: 30 * time.Millisecond})
	defer m.Close()

	j, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		return "r", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusDone)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := m.Get(j.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := m.Cancel(j.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel after expiry = %v, want ErrNotFound", err)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 8})

	started := make(chan struct{})
	running, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	m.Close()
	if s := running.Snapshot().Status; s != StatusCanceled {
		t.Fatalf("running job after Close = %s", s)
	}
	if s := queued.Snapshot().Status; s != StatusCanceled {
		t.Fatalf("queued job after Close = %s", s)
	}
	if _, _, err := m.Submit("analyze", func(ctx context.Context, progress func(string, float64)) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
}

func TestConcurrentSubmitAndPoll(t *testing.T) {
	m := NewManager(Options{Workers: 4, QueueDepth: 256})
	defer m.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := m.Submit(fmt.Sprintf("kind-%d", i%3),
				func(ctx context.Context, progress func(string, float64)) (any, error) {
					progress("work", 0.5)
					return i, nil
				})
			if err != nil {
				errs <- err
				return
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				if s := j.Snapshot(); s.Status.Terminal() {
					if s.Status != StatusDone {
						errs <- fmt.Errorf("job %d: %s (%s)", i, s.Status, s.Error)
					}
					return
				}
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("job %d: timed out", i)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestJobSubmitReturnsQueuedSnapshot pins the snapshot Submit hands
// back: it is taken before the worker handoff, so it reads queued even
// when a worker has already finished the job by the time Submit
// returns.
func TestJobSubmitReturnsQueuedSnapshot(t *testing.T) {
	m := NewManager(Options{Workers: 4})
	defer m.Close()
	for i := 0; i < 50; i++ {
		j, queued, err := m.Submit("analyze", func(context.Context, func(string, float64)) (any, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if queued.ID != j.ID() || queued.Kind != "analyze" {
			t.Fatalf("snapshot %+v does not describe job %s", queued, j.ID())
		}
		if queued.Status != StatusQueued || queued.Progress.Stage != "queued" || queued.StartedAt != nil {
			t.Fatalf("Submit snapshot = %+v, want the queued state", queued)
		}
		waitStatus(t, j, StatusDone)
	}
}
