package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share
// Op; Parent indexes the causing span, -1 for an op's root.
type span struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Op       int64   `json:"op"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	StartNs  int64   `json:"start_ns"`
	EndNs    int64   `json:"end_ns"`
	AllocB   uint64  `json:"alloc_bytes"`
	GCCPUNs  float64 `json:"gc_cpu_ns"`
	alloc0   uint64
	gcCPU0   float64
	measured bool
}

func (s *span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0       time.Time
	workload string
	op       int64
	measure  bool
	spans    []span
	counts   map[string][]float64
	rt       []metrics.Sample
	// after, when set by a replay, runs once the op's handler span has
	// closed: work timed on its own, outside the op.
	after func() error
}

const (
	allocMetric = "/gc/heap/allocs:bytes"
	gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"
)

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		counts: map[string][]float64{},
		rt:     []metrics.Sample{{Name: allocMetric}, {Name: gcCPUMetric}},
	}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

func (t *tracer) readRuntime() (alloc uint64, gcCPU float64) {
	metrics.Read(t.rt)
	return t.rt[0].Value.Uint64(), t.rt[1].Value.Float64()
}

// begin opens a span and returns its id. Reading the runtime metrics
// costs microseconds, so only roots and the spans named in runtimeSpans
// carry allocation and GC deltas; the rest are timed alone.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Workload: t.workload, Name: name, Op: t.op, ID: len(t.spans), Parent: parent, measured: t.measure})
	s := &t.spans[len(t.spans)-1]
	if parent < 0 || runtimeSpans[name] {
		s.alloc0, s.gcCPU0 = t.readRuntime()
	}
	s.StartNs = t.now()
	return s.ID
}

// end closes span id, recording its duration and runtime deltas.
func (t *tracer) end(id int) {
	end := t.now()
	s := &t.spans[id]
	s.EndNs = end
	if s.Parent < 0 || runtimeSpans[s.Name] {
		alloc, gc := t.readRuntime()
		s.AllocB = alloc - s.alloc0
		s.GCCPUNs = (gc - s.gcCPU0) * 1e9
	}
}

// runtimeSpans are the spans whose allocation or GC deltas are
// reported.
var runtimeSpans = func() map[string]bool {
	m := map[string]bool{}
	for _, lm := range layerMetrics {
		if lm.stat != "ms" {
			m[lm.span] = true
		}
	}
	return m
}()

// call runs fn as a child span of parent.
func (t *tracer) call(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

// mark records a span whose edges were observed elsewhere (the
// analysis stage edges reported through core.Options.Progress).
func (t *tracer) mark(name string, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{
		Workload: t.workload, Name: name, Op: t.op, ID: len(t.spans), Parent: parent,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(), measured: t.measure,
	})
}

// count records a count observed by the replay (measured ops only).
func (t *tracer) count(name string, v float64) {
	if t.measure {
		t.counts[name] = append(t.counts[name], v)
	}
}

// layerStats are the medians of one span name over measured ops.
type layerStats struct {
	ms, allocMB, gcCPUms float64
	n                    int
}

// stats aggregates the measured spans named name in workload wl.
func (t *tracer) stats(wl, name string) layerStats {
	var ms, alloc, gc []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Workload != wl || s.Name != name || !s.measured {
			continue
		}
		ms = append(ms, s.ms())
		alloc = append(alloc, float64(s.AllocB)/(1<<20))
		gc = append(gc, s.GCCPUNs/1e6)
	}
	return layerStats{ms: median(ms), allocMB: median(alloc), gcCPUms: median(gc), n: len(ms)}
}

// opCover returns, for every measured root span named op in wl, the
// duration of its server.handle span and the summed duration of that
// span's children, in ms.
func (t *tracer) opCover(wl, op string) (handle, inner []float64) {
	handleOf := map[int]int{} // root -> its server.handle span
	innerSum := map[int]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Workload != wl || s.Parent < 0 {
			continue
		}
		p := &t.spans[s.Parent]
		if s.Name == "server.handle" && p.Parent < 0 {
			handleOf[s.Parent] = i
		} else if p.Name == "server.handle" {
			innerSum[s.Parent] += s.ms()
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Workload == wl && s.Name == op && s.Parent < 0 && s.measured {
			h := handleOf[i]
			handle = append(handle, t.spans[h].ms())
			inner = append(inner, innerSum[h])
		}
	}
	return handle, inner
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
