package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// step is one request of a workload cycle. The same step runs three
// ways: over HTTP against the daemon, through the in-process handler,
// and as a replay of the public layer calls the handler makes.
type step struct {
	op     string // op type, unique across workloads
	class  string // "write", "read", or "" for the rest of the cycle
	method string
	path   string
	body   func() (io.Reader, int64) // nil for no body
	// replay performs the handler's layer calls directly, recording
	// spans under root, and returns what the handler would answer.
	replay func(tr *tracer, root int) (response, error)
	// check validates the response; the error says what is wrong.
	check func(r response) error
}

// response is what a step observed.
type response struct {
	status int
	cache  string // X-Cache header
	body   []byte
	took   time.Duration // set when only part of the exec is timed
}

// runner executes steps and keeps per-op samples and failure counts.
type runner struct {
	name    string
	exec    func(s *step) (response, error)
	measure bool // record latencies (false during warm-up)
	// settle, when set, runs untimed before every step.
	settle func()

	samples   map[string][]float64 // op -> latencies in ms
	attempted int
	failed    int
	failures  []string // the first few failure reasons
}

func newRunner(name string, exec func(s *step) (response, error)) *runner {
	return &runner{name: name, exec: exec, samples: map[string][]float64{}}
}

// do runs one step and reports whether it succeeded. A failed step
// still counts as attempted; a step skipped because an earlier one
// failed is counted with skip.
func (r *runner) do(s *step) (response, bool) {
	r.attempted++
	if r.settle != nil {
		r.settle()
	}
	start := time.Now()
	resp, err := r.exec(s)
	took := time.Since(start)
	if resp.took > 0 {
		took = resp.took
	}
	ms := float64(took.Nanoseconds()) / 1e6
	if err == nil {
		err = s.check(resp)
	}
	if err != nil {
		r.fail(fmt.Sprintf("%s %s: %v", s.op, s.path, err))
		return resp, false
	}
	if r.measure {
		r.samples[s.op] = append(r.samples[s.op], ms)
	}
	return resp, true
}

// skip records steps that could not run because a step they depend on
// failed.
func (r *runner) skip(n int, why string) {
	for i := 0; i < n; i++ {
		r.attempted++
		r.fail("skipped after " + why)
	}
}

func (r *runner) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}

// classSamples pools the samples of every op of one class.
func (r *runner) classSamples(ops []opDef, class string) []float64 {
	var out []float64
	for _, op := range ops {
		if op.class == class {
			out = append(out, r.samples[op.name]...)
		}
	}
	return out
}

// httpExec sends steps to a daemon over one keep-alive connection.
func httpExec(client *http.Client, base string) func(s *step) (response, error) {
	return func(s *step) (response, error) {
		var body io.Reader
		var n int64
		if s.body != nil {
			body, n = s.body()
		}
		req, err := http.NewRequest(s.method, base+s.path, body)
		if err != nil {
			return response{}, err
		}
		if body != nil {
			req.ContentLength = n
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return response{}, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return response{}, err
		}
		return response{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
	}
}

// handlerExec serves steps with the in-process handler, timing the
// handler alone: no sockets, no client.
func handlerExec(h http.Handler) func(s *step) (response, error) {
	return func(s *step) (response, error) {
		var body io.Reader = http.NoBody
		if s.body != nil {
			body, _ = s.body()
		}
		req := httptest.NewRequest(s.method, s.path, body).WithContext(context.Background())
		if s.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		took := time.Since(start)
		return response{status: rec.Code, cache: rec.Header().Get("X-Cache"), body: rec.Body.Bytes(), took: took}, nil
	}
}

// replayExec runs each step's replay under a root span: one
// server.handle span, the replayed handler, holding the plumbing and
// the layer spans.
func replayExec(tr *tracer, p *plumbing) func(s *step) (response, error) {
	return func(s *step) (response, error) {
		tr.op++
		root := tr.begin(s.op, -1)
		defer tr.end(root)
		req, err := http.NewRequest(s.method, s.path, nil)
		if err != nil {
			return response{}, err
		}
		handle := tr.begin("server.handle", root)
		p.serve(tr, handle, req)
		resp, err := s.replay(tr, handle)
		tr.end(handle)
		if after := tr.after; after != nil && err == nil {
			tr.after = nil
			err = after()
		}
		return resp, err
	}
}

// multi streams a prebuilt body made of a per-cycle prefix and a
// shared template without copying either.
func multi(parts ...[]byte) func() (io.Reader, int64) {
	return func() (io.Reader, int64) {
		rs := make([]io.Reader, len(parts))
		var n int64
		for i, p := range parts {
			rs[i] = bytes.NewReader(p)
			n += int64(len(p))
		}
		return io.MultiReader(rs...), n
	}
}
