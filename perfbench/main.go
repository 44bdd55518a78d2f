// Command trajbench is trajsim's end-to-end benchmark. It builds nothing
// itself (run.sh builds it and trajserve), starts a fresh trajserve for
// each run, drives it over loopback with an open-loop generator, checks
// the served output and prints every metric by name and unit. With
// -trace 1 it also replays the same inputs in-process through each
// layer's functions and reports per-layer numbers. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string // scratch root for data dirs, logs and traces
	bin      string // trajserve binary
}

// bench is the state of one run.
type bench struct {
	cfg    config
	runDir string
	flags  []string // trajserve flags beyond -addr and -data-dir
	srv    *server
	c1, c2 *conn

	steal      float64       // share of host CPU time stolen during the run
	took       time.Duration // this attempt's wall time
	waited     time.Duration // the run's time beyond this attempt: waits and repeats
	fs         string        // filesystem of the data directories
	m          metricSet
	attempted  int
	failed     int
	violations []string
	notes      []string // sample counts and other context, printed for humans
}

func (b *bench) violate(format string, args ...any) {
	b.violations = append(b.violations, fmt.Sprintf(format, args...))
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// count tallies ops toward attempted/failed; a failed op is also a
// violation, since every workload is built so that nothing fails.
func (b *bench) count(ops []*op) {
	for _, o := range ops {
		b.attempted++
		if o.kind == opAt && o.err == nil && o.status == http.StatusNotFound {
			continue // judged by checkQueries against the replayed log
		}
		if o.failed() || ingestFailures(o) > 0 {
			b.failed++
			if b.failed <= 3 {
				b.note("failed %s %s: status %d, err %v, reply %.200q", o.kind, o.path, o.status, o.err, o.resp)
			}
		}
	}
}

var workloads = map[string]func(*bench) error{
	"ingest":  runIngest,
	"history": runHistory,
	"live":    runLive,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, history or live")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured window length in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced in-process replay")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for data dirs, server logs and traces")
	flag.StringVar(&cfg.bin, "trajserve", "", "trajserve binary")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trajbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	all        metricSet // everything measured, reported or not
	defs       []metricDef
	notes      []string
	violations []string
	print      fingerprint
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and returns its result. Errors are for runs
// that could not measure at all; check violations are in the result.
func run(cfg config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (ingest, history, live)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	if cfg.bin == "" {
		return nil, errors.New("-trajserve is required")
	}
	if runtime.NumCPU() < connections {
		return nil, fmt.Errorf("the generator holds %d connections and needs as many CPUs; this host has %d", connections, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(connections)
	out, err := filepath.Abs(cfg.out)
	if err != nil {
		return nil, err
	}
	cfg.out = out
	var b *bench
	var skipped []string
	start := now()
	spare := quietTotal - spentQuiet(cfg.out) // what this checkout's runs may still spend
	for attempt := 1; ; attempt++ {
		// On a shared VM other guests can hold the host's CPUs for tens of
		// seconds to minutes, and a run inside such a spell measures them,
		// not the program: wait for a quiet spell, within budgets.
		b0 := now()
		waitQuiet(min(quietBudget-(now()-start), spare))
		spare -= now() - b0
		var stolen float64
		b, stolen, err = attemptRun(cfg, wl, attempt)
		if err != nil {
			return nil, err
		}
		if stolen <= stealLimit || attempt == maxAttempts || now()-start > retryWithin || spare <= 0 {
			break
		}
		skipped = append(skipped, fmt.Sprintf("%.1f%%", 100*stolen))
		spare -= b.took
	}
	// Everything beyond one plain attempt counts against the budget.
	b.waited = now() - start - b.took
	addSpentQuiet(cfg.out, b.waited)
	if len(skipped) > 0 {
		b.note("repeated after attempts with %v of host CPU time stolen (limit %.1f%%)", skipped, 100*stealLimit)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{
		Correct:    len(b.violations) == 0,
		Attempted:  b.attempted,
		Failed:     b.failed,
		Metrics:    map[string]metricValue{},
		all:        b.m,
		defs:       defs,
		notes:      b.notes,
		violations: b.violations,
		print:      b.fingerprint(),
	}
	if b.failed > 0 {
		res.Correct = false
		res.violations = append(res.violations, fmt.Sprintf("%d of %d operations failed", b.failed, b.attempted))
	}
	for _, d := range defs {
		v, ok := b.m[d.name]
		if !ok {
			return nil, fmt.Errorf("bug: workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

const (
	stealLimit  = 0.015             // share of host CPU time stolen that voids an attempt
	maxAttempts = 2                 // attempts per run
	quietBudget = 50 * time.Second  // most one run waits for a quiet host
	retryWithin = 60 * time.Second  // repeat only when the run is younger than this
	quietTotal  = 450 * time.Second // most all runs in one checkout spend on waits and repeats
)

// spentQuiet reads how long earlier runs writing to out spent on waits
// and repeats; addSpentQuiet adds this run's share. The ledger caps what
// a long noisy spell costs a whole series of runs.
func spentQuiet(out string) time.Duration {
	b, err := os.ReadFile(filepath.Join(out, "quiet_spent_s"))
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	return time.Duration(v * float64(time.Second))
}

func addSpentQuiet(out string, d time.Duration) {
	v := (spentQuiet(out) + d).Seconds()
	if err := os.WriteFile(filepath.Join(out, "quiet_spent_s"), []byte(strconv.FormatFloat(v, 'f', 3, 64)), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "trajbench: quiet ledger:", err)
	}
}

// waitQuiet keeps both CPUs busy for a second at a time and returns once
// less than stealLimit of that time was stolen, or when budget is spent.
func waitQuiet(budget time.Duration) {
	start := now()
	for {
		tot0, st0 := cpuSteal()
		var wg sync.WaitGroup
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for end := now() + time.Second; now() < end; {
				}
			}()
		}
		wg.Wait()
		tot1, st1 := cpuSteal()
		if frac(float64(st1-st0), float64(tot1-tot0)) <= stealLimit || now()-start >= budget {
			return
		}
		time.Sleep(2 * time.Second)
	}
}

// attemptRun runs the workload once in its own directory and returns its
// state and the share of host CPU time stolen meanwhile.
func attemptRun(cfg config, wl func(*bench) error, attempt int) (*bench, float64, error) {
	// Populations a workload's traced run has no traffic for report zero.
	b := &bench{cfg: cfg, m: metricSet{"segstore.absorbed_misses": 0, "trajserve.range_p99_ms": 0, "trajserve.at_p99_ms": 0}}
	b.runDir = filepath.Join(cfg.out, "runs", fmt.Sprintf("%s-s%d-t%d-p%d-a%d", cfg.workload, cfg.seed, trace01(cfg.trace), os.Getpid(), attempt))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, 0, err
	}
	b.fs = fsType(b.runDir)
	defer removeBounded(b.runDir, 20*time.Second)
	start := now()
	tot0, st0 := cpuSteal()
	err := wl(b)
	if b.srv != nil {
		if serr := b.srv.stop(); serr != nil && err == nil {
			err = serr
		}
	}
	tot1, st1 := cpuSteal()
	b.took = now() - start
	b.steal = frac(float64(st1-st0), float64(tot1-tot0))
	return b, b.steal, err
}

func trace01(t bool) int {
	if t {
		return 1
	}
	return 0
}

// fingerprint identifies the host and configuration a result came from,
// so it is never compared with numbers from another machine or setup.
type fingerprint struct {
	Workload       string   `json:"workload"`
	Seed           uint64   `json:"seed"`
	Seconds        int      `json:"seconds"`
	Trace          bool     `json:"trace"`
	NProc          int      `json:"nproc"`
	CPUModel       string   `json:"cpu_model"`
	GoVersion      string   `json:"go_version"`
	GenGOMAXPROCS  int      `json:"generator_gomaxprocs"`
	SrvGOMAXPROCS  int      `json:"trajserve_gomaxprocs"`
	Connections    int      `json:"connections"`
	DataDirFS      string   `json:"data_dir_fs"`
	TrajserveFlags []string `json:"trajserve_flags"`
	Steal          float64  `json:"steal_frac"`
	WaitedS        float64  `json:"waited_for_quiet_s"`
}

// connections is how many the generator ever holds open at once.
const connections = 2

func (b *bench) fingerprint() fingerprint {
	return fingerprint{
		Workload:       b.cfg.workload,
		Seed:           b.cfg.seed,
		Seconds:        b.cfg.seconds,
		Trace:          b.cfg.trace,
		NProc:          runtime.NumCPU(),
		CPUModel:       cpuModel(),
		GoVersion:      runtime.Version(),
		GenGOMAXPROCS:  runtime.GOMAXPROCS(0),
		SrvGOMAXPROCS:  runtime.NumCPU(), // set in the server's environment
		Connections:    connections,
		DataDirFS:      b.fs,
		TrajserveFlags: b.flags,
		Steal:          b.steal,
		WaitedS:        b.waited.Seconds(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// printResult writes the human-readable report, the fingerprint line
// and, last, the machine-readable result line.
func printResult(w *os.File, r *result) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v\n", r.print.Workload, r.print.Seed, r.print.Trace)
	for _, d := range r.defs {
		v := r.Metrics[d.name]
		line := fmt.Sprintf("%-30s %14.6g %-14s (%s is better)", d.name, v.Value, v.Unit, d.better)
		if d.moves != "" {
			line += "  moves: " + d.moves
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, v := range r.violations {
		fmt.Fprintln(w, "# VIOLATION: "+v)
	}
	fp, _ := json.Marshal(r.print)
	fmt.Fprintf(w, "# fingerprint %s\n", fp)
	line, _ := json.Marshal(r)
	fmt.Fprintln(w, string(line))
}
