package main

import (
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/continuous"
	"repro/internal/session"
	"repro/internal/store"
)

// opDef names one op type of a workload and its class: "write",
// "read", or "" for the ops that are neither.
type opDef struct{ name, class string }

// workload is one runner's state for driving a workload's cycles.
type workload interface {
	ops() []opDef
	// setup does the workload's one-time registration; it is part of
	// setup_s.
	setup(r *runner) error
	cycle(r *runner, i int)
}

// layerEnv holds the layer objects the replays call into, built the
// way the daemon builds them.
type layerEnv struct {
	st       *store.Store
	sessions *session.Manager
	declog   *continuous.Log
}

func newLayerEnv(dir string) (*layerEnv, error) {
	st, err := store.New(store.Options{Dir: filepath.Join(dir, "store"), Logf: discardf})
	if err != nil {
		return nil, err
	}
	declog, err := continuous.OpenLog(continuous.LogOptions{Path: filepath.Join(dir, "store", "decisions.jsonl"), Logf: discardf})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &layerEnv{
		st:       st,
		sessions: session.NewManager(session.Options{TTL: 30 * time.Minute, MaxSessions: 128}),
		declog:   declog,
	}, nil
}

func (e *layerEnv) close() {
	e.declog.Close()
	e.sessions.Close()
	e.st.Close()
}

func discardf(string, ...any) {}

// workloadDef is one workload: its seeded inputs and how long it runs.
type workloadDef struct {
	// perSecond is how many measured cycles one --seconds buys. The
	// count is fixed by --seconds alone, never by elapsed time, so two
	// commits measured with the same settings do identical work.
	perSecond float64
	// round makes the cycle counts multiples of this, so runs cover
	// whole session periods.
	round int
	warm  int // discarded warm-up cycles
	// traceCycles is the measured cycle count of the traced run.
	traceCycles int
	// prepare builds the inputs for n cycles and returns a constructor
	// of fresh per-runner state; env is nil for the HTTP runners.
	prepare func(seed int64, n int, brk string) (func(env *layerEnv) workload, error)
}

var workloads = map[string]workloadDef{
	// The paper's main use: ingest plus the dense analysis.
	"org-audit": {perSecond: 4, round: 1, warm: 3, traceCycles: 16, prepare: orgPrepare("analyze", "audit", 10)},
	// The only load on the optimizer, at a size where it dominates.
	"org-optimize": {perSecond: 4, round: 1, warm: 3, traceCycles: 16, prepare: orgPrepare("optimize", "optimize", 40)},
	// The O(delta) session path: event batches and session audits.
	"session-churn": {perSecond: 25, round: sessionPeriod, warm: sessionPeriod, traceCycles: 20 * sessionPeriod, prepare: sessionPrepare},
}

// workloadOrder is the order the traced run replays the workloads in.
var workloadOrder = []string{"org-audit", "org-optimize", "session-churn"}

func workloadNames() string { return strings.Join(workloadOrder, ", ") }

func (d workloadDef) cycles(seconds int) int {
	n := int(d.perSecond*float64(seconds) + 0.5)
	n = (n + d.round - 1) / d.round * d.round
	if n < d.round {
		n = d.round
	}
	return n
}

func orgPrepare(kind, prefix string, div int) func(seed int64, n int, brk string) (func(env *layerEnv) workload, error) {
	return func(seed int64, n int, brk string) (func(env *layerEnv) workload, error) {
		in, err := newOrgInputs(seed, div, n, kind == "optimize")
		if err != nil {
			return nil, err
		}
		return func(env *layerEnv) workload {
			return &orgRun{in: in, kind: kind, prefix: prefix, env: env, brk: brk}
		}, nil
	}
}

func sessionPrepare(seed int64, _ int, brk string) (func(env *layerEnv) workload, error) {
	in, err := newSessionInputs(seed, 10)
	if err != nil {
		return nil, err
	}
	return func(env *layerEnv) workload {
		return &sessionRun{in: in, env: env, brk: brk}
	}, nil
}

// breaks are the correctness checks --break can feed a wrong
// expectation, each on the workload that runs it.
var breaks = map[string]string{
	"upload": "org-audit, org-optimize: upload stats",
	"miss":   "org-audit: report class counts against the ground truth",
	"hit":    "org-audit, org-optimize: hit byte-identical to the miss",
	"plan":   "org-optimize: plan counts repeat every cycle",
	"safety": "org-optimize: optimized dataset passes VerifySafety",
	"events": "session-churn: applied event counts",
	"audit":  "session-churn: audit equals the sparse re-analysis",
}

func validBreak(name string) bool { _, ok := breaks[name]; return ok }

func breakNames() string {
	var names []string
	for n := range breaks {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
