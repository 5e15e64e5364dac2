package main

import (
	"context"
	"net/http"
	"time"

	"repro/internal/metrics"
)

// plumbing replays the handler's per-request plumbing with the calls
// the handler's middleware makes: the request deadline, the
// load-shedding semaphore, the route lookup over the daemon's own route
// table, the per-route metrics and the response headers. The replays of
// small ops (cache hits, deletes) would miss a fifth of the handler's
// time without it.
type plumbing struct {
	mux  *http.ServeMux
	sem  chan struct{}
	dur  *metrics.HistogramVec
	reqs *metrics.CounterVec
}

func newPlumbing(routes []string, maxConcurrent int) *plumbing {
	p := &plumbing{mux: http.NewServeMux(), sem: make(chan struct{}, maxConcurrent)}
	for _, pattern := range routes {
		p.mux.HandleFunc(pattern, func(http.ResponseWriter, *http.Request) {})
	}
	reg := metrics.NewRegistry()
	p.reqs = reg.Counter("rolediet_http_requests_total", "", "route", "code")
	p.dur = reg.Histogram("rolediet_http_request_duration_seconds", "", nil, "route")
	return p
}

// serve records the plumbing of one request as a child span of parent.
func (p *plumbing) serve(tr *tracer, parent int, req *http.Request) {
	_ = tr.call("server.middleware", parent, func() error {
		ctx, cancel := context.WithTimeout(req.Context(), 5*time.Minute)
		defer cancel()
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		start := time.Now()
		_, pattern := p.mux.Handler(req.WithContext(ctx))
		hdr := http.Header{}
		hdr.Set("Content-Type", "application/json")
		_ = req.URL.Query()
		p.dur.With(pattern).Observe(time.Since(start).Seconds())
		p.reqs.With(pattern, "200").Inc()
		return nil
	})
}
