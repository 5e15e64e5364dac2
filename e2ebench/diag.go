package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// diagnostics are recorded with every run and never used as metrics:
// they say whether the host was steady while the run measured.
type diagnostics struct {
	Workload        string    `json:"workload"`
	Seed            int64     `json:"seed"`
	Cycles          int       `json:"cycles"`
	WarmCycles      int       `json:"warm_cycles"`
	MeasuredSeconds float64   `json:"measured_seconds"`
	StealPct        float64   `json:"steal_pct"`
	LoadAvgStart    string    `json:"loadavg_start"`
	LoadAvgEnd      string    `json:"loadavg_end"`
	CalibrationMs   []float64 `json:"calibration_ms"`     // before, after
	CalibrationMem  []float64 `json:"calibration_mem_ms"` // before, after
	NumCPU          int       `json:"num_cpu"`
	DaemonGOMAXPROC int       `json:"daemon_gomaxprocs"`
	ClientGOMAXPROC int       `json:"client_gomaxprocs"`
	DaemonFlags     []string  `json:"daemon_flags"`
	ClientGo        string    `json:"client_go"`
	DaemonGo        string    `json:"daemon_go"`
	FlushPolicy     string    `json:"flush_policy"`
	FailedShare     float64   `json:"failed_share"`
	Failures        []string  `json:"failures,omitempty"`
}

const flushPolicy = "no fsync: store files are written to a temp file and renamed; the decision log is buffered"

// hostSample is a /proc/stat reading for the steal share.
type hostSample struct{ steal, total uint64 }

func readHost() hostSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSample{}
	}
	line := strings.SplitN(string(b), "\n", 2)[0]
	var s hostSample
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

func stealPct(a, b hostSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// calibrate times a fixed amount of client work, once cache-resident
// (48 SHA-256 passes over 1 MiB) and once memory-bound (8 copies of
// 64 MiB); comparing the values before and after a run, and across
// runs, shows whether the host's speed moved. The program's hot paths
// allocate heavily, so the memory-bound figure tracks them more
// closely.
func calibrate() (cpuMs, memMs float64) {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now()
	for i := 0; i < 48; i++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	cpuMs = float64(time.Since(start).Nanoseconds()) / 1e6
	src, dst := make([]byte, 64<<20), make([]byte, 64<<20)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the pages in before timing
	start = time.Now()
	for i := 0; i < 8; i++ {
		copy(dst, src)
		src[0] = dst[len(dst)-1]
	}
	memMs = float64(time.Since(start).Nanoseconds()) / 1e6
	return cpuMs, memMs
}

// calibrate records one pair of calibration timings.
func (d *diagnostics) calibrate() {
	c, m := calibrate()
	d.CalibrationMs = append(d.CalibrationMs, c)
	d.CalibrationMem = append(d.CalibrationMem, m)
}

func binaryGo(path string) string {
	bi, err := buildinfo.ReadFile(path)
	if err != nil {
		return ""
	}
	return bi.GoVersion
}

func newDiagnostics(cfg config) *diagnostics {
	return &diagnostics{
		Workload:        cfg.workload,
		Seed:            cfg.seed,
		NumCPU:          runtime.NumCPU(),
		ClientGOMAXPROC: runtime.GOMAXPROCS(0),
		ClientGo:        runtime.Version(),
		DaemonGo:        binaryGo(cfg.daemon),
		FlushPolicy:     flushPolicy,
		LoadAvgStart:    loadAvg(),
	}
}
