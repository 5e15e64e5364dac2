package main

import (
	"fmt"
	"time"
)

// setupRuns is how many times a run sets up (daemon start plus the
// workload's registration); setup_s is their median and the last
// daemon is the one measured.
const setupRuns = 7

// endToEnd is the untraced run: a fresh daemon, the workload's cycles
// in a closed loop over one keep-alive connection, every response
// checked.
func endToEnd(cfg config) (*result, error) {
	def := workloads[cfg.workload]
	cycles := def.cycles(cfg.seconds)
	newWorkload, err := def.prepare(cfg.seed, def.warm+cycles, cfg.breakChk)
	if err != nil {
		return nil, fmt.Errorf("prepare %s inputs: %w", cfg.workload, err)
	}
	diag := newDiagnostics(cfg)
	diag.Cycles, diag.WarmCycles = cycles, def.warm
	diag.calibrate()

	client := newClient()
	rec := newRunner("daemon", nil)
	var d *daemon
	var w workload
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		if d != nil {
			d.stop()
			client.CloseIdleConnections()
		}
		start := time.Now()
		if d, err = startDaemon(cfg.daemon, cfg.work, client); err != nil {
			return nil, err
		}
		rec.exec = httpExec(client, d.base)
		w = newWorkload(nil)
		if err := w.setup(rec); err != nil {
			d.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.stop()
	diag.DaemonFlags = d.args
	diag.DaemonGOMAXPROC = d.gomaxprocs()

	for i := 0; i < def.warm; i++ {
		w.cycle(rec, i)
	}
	host0 := readHost()
	cpu0, err := d.cpuMs()
	if err != nil {
		return nil, err
	}
	rec.measure = true
	t0 := time.Now()
	for i := def.warm; i < def.warm+cycles; i++ {
		w.cycle(rec, i)
	}
	diag.MeasuredSeconds = time.Since(t0).Seconds()
	cpu1, err := d.cpuMs()
	if err != nil {
		return nil, err
	}
	diag.StealPct = stealPct(host0, readHost())
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	diag.LoadAvgEnd = loadAvg()
	diag.calibrate()
	diag.FailedShare = float64(rec.failed) / float64(rec.attempted)
	diag.Failures = rec.failures

	counts := map[string]int{}
	for _, op := range w.ops() {
		counts[op.name] = len(rec.samples[op.name])
	}
	info("samples", counts)
	info("diagnostics", diag)

	res := newResult()
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Correct = rec.failed == 0
	res.set("setup_s", median(setups), "s")
	for _, class := range []string{"write", "read"} {
		xs := rec.classSamples(w.ops(), class)
		res.set(class+"_ms_p50", quantile(xs, 0.5), "ms")
		res.set(class+"_ms_p90", quantile(xs, 0.9), "ms")
	}
	res.set("daemon_cpu_ms_per_op", (cpu1-cpu0)/float64(cycles), "ms")
	res.set("daemon_rss_mb", rss, "MB")
	return res, nil
}
