// Command e2ebench is the end-to-end and per-layer benchmark of
// roledietd. It starts a fresh daemon per run, drives one workload
// through a closed loop over a single keep-alive connection, checks
// every response, and prints one JSON result line as the last line of
// standard output.
//
//	bash e2ebench/run.sh --workload org-audit --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it instead makes the traced run: every workload's ops
// are replayed in-process, through the HTTP handler and through the
// public layer functions the handlers call, and the per-layer metrics
// are reported. See README.md in this directory for the workloads,
// the metrics and the findings behind them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // roledietd binary
	work     string // work directory inside the checkout
	breakChk string // correctness check to feed a wrong expectation
}

func run(args []string) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 25, "run length; fixes the number of measured cycles")
	fs.IntVar(&trace, "trace", 0, "1 makes the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&cfg.daemon, "daemon", ".bench_build/roledietd", "roledietd binary")
	fs.StringVar(&cfg.work, "work", ".bench_build", "work directory for store dirs, logs and traces")
	fs.StringVar(&cfg.breakChk, "break", "", "feed this correctness check a wrong expectation, to show it fires: "+breakNames())
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("seconds %d < 1", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("trace %d: want 0 or 1", trace)
	}
	cfg.trace = trace == 1
	if cfg.breakChk != "" && !validBreak(cfg.breakChk) {
		return fmt.Errorf("unknown check %q (want %s)", cfg.breakChk, breakNames())
	}
	if _, err := os.Stat(cfg.daemon); err != nil {
		return fmt.Errorf("daemon binary: %w", err)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	// The client is one closed-loop caller; one P keeps it from
	// competing with the daemon for the host's cores.
	runtime.GOMAXPROCS(1)

	var res *result
	var err error
	if cfg.trace {
		res, err = traceRun(cfg)
	} else {
		res, err = endToEnd(cfg)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// info prints a diagnostic line ahead of the result line.
func info(label string, v any) {
	b, _ := json.Marshal(v) // plain structs and maps of numbers and strings
	fmt.Printf("# %s %s\n", label, b)
}

// quantile is the nearest-rank quantile of xs (0 < q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
