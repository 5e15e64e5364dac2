package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// layerMetric names one per-layer metric: a span statistic ("ms",
// "alloc" or "gc") of the named span on one workload's ops.
type layerMetric struct {
	metric, workload, span, stat string
}

// layerMetrics lists the per-layer metrics taken from spans. Each
// comes from the workload whose ops exercise the layer.
var layerMetrics = []layerMetric{
	{"rbac.read_stream_ms", "org-audit", "rbac.read_stream", "ms"},
	{"rbac.read_stream_alloc_mb", "org-audit", "rbac.read_stream", "alloc"},
	{"store.digest_ms", "org-audit", "store.digest", "ms"},
	{"store.put_canonical_ms", "org-audit", "store.put_canonical", "ms"},
	{"store.get_dataset_ms", "org-audit", "store.get_dataset", "ms"},
	{"core.new_analyzer_ms", "org-audit", "core.new_analyzer", "ms"},
	{"core.new_analyzer_alloc_mb", "org-audit", "core.new_analyzer", "alloc"},
	{"core.linear_scan_ms", "org-audit", "core.linear_scan", "ms"},
	{"core.same_user_groups_ms", "org-audit", "core.same_user_groups", "ms"},
	{"core.same_permission_groups_ms", "org-audit", "core.same_permission_groups", "ms"},
	{"core.similar_user_groups_ms", "org-audit", "core.similar_user_groups", "ms"},
	{"core.similar_permission_groups_ms", "org-audit", "core.similar_permission_groups", "ms"},
	{"core.report_encode_ms", "org-audit", "core.report_encode", "ms"},
	{"optimize.run_ms", "org-optimize", "optimize.run", "ms"},
	{"optimize.run_alloc_mb", "org-optimize", "optimize.run", "alloc"},
	{"optimize.run_gc_cpu_ms", "org-optimize", "optimize.run", "gc"},
	{"consolidate.verify_safety_ms", "org-optimize", "consolidate.verify_safety", "ms"},
	{"replay.read_log_ms", "session-churn", "replay.read_log", "ms"},
	{"session.apply_ms", "session-churn", "session.apply", "ms"},
	{"session.apply_alloc_mb", "session-churn", "session.apply", "alloc"},
	{"replay.write_log_ms", "session-churn", "replay.write_log", "ms"},
	{"store.append_session_log_ms", "session-churn", "store.append_session_log", "ms"},
	{"session.audit_ms", "session-churn", "session.audit", "ms"},
	{"session.audit_encode_ms", "session-churn", "session.audit_encode", "ms"},
	{"session.create_ms", "session-churn", "session.create", "ms"},
}

// countMetrics are counts the replays observe, reported as medians.
var countMetrics = []string{"core.report_bytes", "optimize.roles_removed", "optimize.rounds", "optimize.actions"}

// minCoverage is the share of the handler's time the layer spans of an
// op must account for; below it the replay has drifted from what the
// handler does.
const minCoverage = 0.9

// traceRun replays every workload three ways — against the daemon,
// through the in-process handler, and as direct layer calls with spans
// — and reports the per-layer metrics. It replays all workloads
// whatever --workload names, so every traced run reports every
// per-layer metric.
func traceRun(cfg config) (*result, error) {
	res := newResult()
	tr := newTracer()
	// The in-process runners run at the daemon's GOMAXPROCS.
	runtime.GOMAXPROCS(runtime.NumCPU())
	var flagged []string
	// layerShare is the part of the handler's time the layer spans
	// inside server.handle account for; the rest is the handler's own
	// glue.
	layerShare := map[string]float64{}
	for _, name := range workloadOrder {
		tr.workload = name
		runs, err := traceWorkload(cfg, name, tr, res)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		daemonRun, handlerRun, replayRun := runs[0], runs[1], runs[2]
		for _, r := range runs {
			res.Attempted += r.attempted
			res.Failed += r.failed
			for _, f := range r.failures {
				fmt.Printf("# failure %s %s: %s\n", name, r.name, f)
			}
		}
		for _, op := range replayRun.w.ops() {
			handler := median(handlerRun.samples[op.name])
			res.set("server."+op.name+"_ms", handler, "ms")
			res.set("http.residual."+op.name+"_ms", median(daemonRun.samples[op.name])-handler, "ms")
			handle, inner := tr.opCover(name, op.name)
			cov := coverage(handle, handlerRun.samples[op.name])
			layerShare[op.name] = coverage(inner, handlerRun.samples[op.name])
			res.set("trace.coverage."+op.name, cov, "ratio")
			if cov < minCoverage {
				flagged = append(flagged, fmt.Sprintf("%s %.3f", op.name, cov))
			}
		}
	}
	runtime.GOMAXPROCS(1)
	for _, m := range layerMetrics {
		s := tr.stats(m.workload, m.span)
		if s.n == 0 {
			return nil, fmt.Errorf("no measured %s spans on %s", m.span, m.workload)
		}
		switch m.stat {
		case "ms":
			res.set(m.metric, s.ms, "ms")
		case "alloc":
			res.set(m.metric, s.allocMB, "MB")
		case "gc":
			res.set(m.metric, s.gcCPUms, "ms")
		}
	}
	for _, name := range countMetrics {
		if len(tr.counts[name]) == 0 {
			return nil, fmt.Errorf("no %s count observed", name)
		}
		res.set(name, median(tr.counts[name]), "count")
	}
	info("layer_share", layerShare)
	if len(flagged) > 0 {
		fmt.Printf("# coverage below %.2f (the replay has drifted from the handler): %v\n", minCoverage, flagged)
	}
	path := filepath.Join(cfg.work, "traces", fmt.Sprintf("trace-seed%d-%d.jsonl", cfg.seed, os.Getpid()))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# spans %d written to %s\n", len(tr.spans), path)
	res.Correct = res.Failed == 0
	return res, nil
}

// coverage compares an op's replay times with the handler's by their
// lower quartiles: a burst on the host inflates single samples of
// either side, and the lower quartile is the typical undisturbed call.
// The two sides see the same inputs in the same cycles.
func coverage(replay, handler []float64) float64 {
	return quantile(replay, 0.25) / quantile(handler, 0.25)
}

// tracedRunner is one of the three ways the traced run drives a
// workload, with its own workload state.
type tracedRunner struct {
	*runner
	w workload
}

// traceWorkload drives one workload against a fresh daemon, then
// through the in-process handler and the layer replay, which take turns
// cycle by cycle so a change in host speed hits both alike. The daemon
// is stopped first, so its background collections do not land on the
// in-process runs. It records the daemon's store counters for
// org-audit.
func traceWorkload(cfg config, name string, tr *tracer, res *result) ([]*tracedRunner, error) {
	def := workloads[name]
	newWorkload, err := def.prepare(cfg.seed, def.warm+def.traceCycles, cfg.breakChk)
	if err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}

	client := newClient()
	d, err := startDaemon(cfg.daemon, cfg.work, client)
	if err != nil {
		return nil, err
	}
	daemonRun := &tracedRunner{runner: newRunner("daemon", httpExec(client, d.base)), w: newWorkload(nil)}
	err = drive([]*tracedRunner{daemonRun}, def, tr)
	if err == nil && name == "org-audit" {
		var stats struct {
			Store store.Stats `json:"store"`
		}
		err = getJSON(client, d.base+"/v1/stats", &stats)
		s := stats.Store
		res.set("store.hit_ratio", float64(s.Hits)/float64(s.Hits+s.Misses), "ratio")
		res.set("store.resident_results_mb", float64(s.ResultBytes)/(1<<20), "MB")
	}
	d.stop()
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(cfg.work, "inproc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.New(store.Options{Dir: filepath.Join(dir, "handler", "store"), Logf: discardf})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	procs := runtime.GOMAXPROCS(0)
	h := server.NewHandler(server.Options{
		Store:           st,
		RequestTimeout:  5 * time.Minute,
		MaxConcurrent:   2 * procs,
		JobWorkers:      procs,
		DecisionLogPath: filepath.Join(dir, "handler", "store", "decisions.jsonl"),
		Logf:            discardf,
	})
	if c, ok := h.(io.Closer); ok {
		defer c.Close()
	}
	env, err := newLayerEnv(filepath.Join(dir, "replay"))
	if err != nil {
		return nil, err
	}
	defer env.close()
	routes := h.(interface{ Routes() []string }).Routes()
	handlerRun := &tracedRunner{runner: newRunner("handler", handlerExec(h)), w: newWorkload(nil)}
	replayRun := &tracedRunner{runner: newRunner("replay", replayExec(tr, newPlumbing(routes, 2*procs))), w: newWorkload(env)}
	// The two in-process runners share this process's heap; a full
	// collection before each of their steps keeps one step's garbage
	// from being collected on the next step's time.
	handlerRun.settle, replayRun.settle = runtime.GC, runtime.GC
	runs := []*tracedRunner{daemonRun, handlerRun, replayRun}
	return runs, drive(runs[1:], def, tr)
}

// drive runs setup, the warm-up and the measured cycles, the runners
// taking turns cycle by cycle.
func drive(runs []*tracedRunner, def workloadDef, tr *tracer) error {
	tr.measure = false
	for _, r := range runs {
		if err := r.w.setup(r.runner); err != nil {
			return fmt.Errorf("%s setup: %w", r.name, err)
		}
	}
	for i := 0; i < def.warm+def.traceCycles; i++ {
		tr.measure = i >= def.warm
		for k := range runs {
			// Alternate which runner goes first, flipping the phase
			// every session period so that the ops made once per
			// period (session create and delete) alternate too.
			r := runs[(k+i+i/sessionPeriod)%len(runs)]
			r.measure = tr.measure
			r.w.cycle(r.runner, i)
		}
	}
	return nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
