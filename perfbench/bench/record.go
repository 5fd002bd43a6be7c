package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record describes the conditions of a run; it is printed before the
// result so every number can be traced back to its code and machine.
type Record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Scale      float64 `json:"scale"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	// Workers is the per-query worker request (0 = serial default);
	// Conns and RateRPS describe the open loop.
	Workers int     `json:"workers,omitempty"`
	Conns   int     `json:"conns,omitempty"`
	RateRPS float64 `json:"rate_rps,omitempty"`
	// TailPct is the percentile latency_tail_ms reports, fixed per
	// workload; TailBeyond is how many samples lay beyond it this run.
	TailPct    float64            `json:"tail_pct"`
	TailBeyond int                `json:"tail_beyond"`
	Setups     []float64          `json:"setup_s_each"`
	Samples    int                `json:"samples"`
	Unchecked  int                `json:"unchecked"` // reads whose results could not be checked
	KindP50Ms  map[string]float64 `json:"kind_p50_ms"`
	// HostStealFrac is the share of the measured window's CPU time the
	// hypervisor gave to other guests, over all CPUs (Linux only): a high
	// value marks a run slowed by the machine rather than the program.
	HostStealFrac float64  `json:"host_steal_frac"`
	Errors        []string `json:"errors,omitempty"`
}

// NewRecord fills in the machine and source fields.
func NewRecord(workload string, seed int64, seconds float64, trace bool) Record {
	nproc, gmp := Procs()
	return Record{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: nproc, GOMAXPROCS: gmp, GoVersion: runtime.Version(),
		Commit: gitHead("."),
	}
}

// gitHead reads the checked-out commit from .git without running git, or
// reports "unknown" outside a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// StealSeconds reads the CPU time stolen from this machine so far, summed
// over its CPUs, from /proc/stat (0 where that does not exist).
func StealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// PeakRSSMB is the process's peak resident set size in MiB.
func PeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Print writes the human-readable metric lines, the run record and, last,
// the result line.
func Print(w io.Writer, rec Record, extra map[string]Metric, res Result) error {
	names := make([]string, 0, len(res.Metrics)+len(extra))
	all := map[string]Metric{}
	for k, m := range res.Metrics {
		all[k] = m
		names = append(names, k)
	}
	for k, m := range extra {
		if _, dup := all[k]; !dup {
			all[k] = m
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, all[n].Value, all[n].Unit)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]Record{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}
