// Command wirebench is the repository benchmark: it drives Perm end to end
// through database/sql, the perm driver and loopback TCP into an in-process
// server backed by a write-ahead log and one asynchronous replica, checks
// every answer, and prints one JSON result line.
//
//	wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// traced run records spans around the benchmark's calls into each module and
// the result carries the per-layer metrics instead. A human-readable report
// (host, pinned settings, input hash, every latency percentile the sample
// supports) goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlProvAnalytic    = "prov_analytic"
	wlPointRW         = "point_rw"
	wlProvUnderWrites = "prov_under_writes"
)

// sizes scales a run. fullSizes is what the benchmark measures; the
// self-test runs the same code at tinySizes.
type sizes struct {
	// Messages is the forum size of the provenance workloads.
	Messages int
	// Accounts is the row count of point_rw's table (even: two clients
	// own the odd and the even ids).
	Accounts int
	// WriteRate is prov_under_writes' open-loop writer rate, per second.
	WriteRate float64
	// Setups is how many times an untraced run builds the whole stack;
	// setup_s is their median.
	Setups int
	// LayerReps is how often the traced run replays each statement template
	// through the module entry points.
	LayerReps int
}

var fullSizes = sizes{Messages: 30000, Accounts: 100000, WriteRate: 5, Setups: 5, LayerReps: 15}

var tinySizes = sizes{Messages: 300, Accounts: 400, WriteRate: 20, Setups: 2, LayerReps: 3}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string
	commit   string
	sizes    sizes
	// report receives the human-readable report.
	report io.Writer
	// corrupt flips one reference digest before the run, so the
	// correctness gate must trip (self-test only).
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join([]string{wlProvAnalytic, wlPointRW, wlProvUnderWrites}, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: data and statement stream are a pure function of it")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision named in the host block")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/run", "directory for data directories, spill files and traces")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "wirebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.sizes = fullSizes
	cfg.report = os.Stderr

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload run and returns its result line.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, fmt.Errorf("create work dir: %w", err)
	}
	printHost(cfg)
	var rep *report
	var err error
	switch cfg.workload {
	case wlProvAnalytic:
		rep, err = runProv(cfg, false)
	case wlProvUnderWrites:
		rep, err = runProv(cfg, true)
	case wlPointRW:
		rep, err = runPointRW(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	rep.print(cfg.report)
	res := &result{
		Correct:   rep.correct && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	if cfg.trace {
		res.Metrics = rep.layers
	}
	return res, nil
}

// report collects everything one run measured. Concurrent clients record
// attempts, failures and wrong answers through its methods.
type report struct {
	workload  string
	inputHash string
	mu        sync.Mutex
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	// e2e and layers are the JSON metrics of an untraced and a traced run.
	e2e    map[string]metric
	layers map[string]metric
	// lines are extra report lines: every percentile, writer lateness, gates.
	lines []string
}

func newReport(workload string) *report {
	return &report{workload: workload, correct: true, e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// error counts an operation that returned an error.
func (r *report) error(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	r.note("error: " + fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// mismatch counts an operation whose answer was wrong, or a failed check
// of the end state; either makes the run incorrect.
func (r *report) mismatch(format string, args ...any) {
	r.mu.Lock()
	r.correct = false
	r.failed++
	r.note("MISMATCH: " + fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *report) note(problem string) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, problem)
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  inputs sha256=%s\n", r.workload, r.inputHash)
	for _, l := range r.lines {
		fmt.Fprintln(w, "  "+l)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  failed_ratio %.6f (%d of %d attempted)  correct=%v\n", ratio, r.failed, r.attempted, r.correct)
	for _, p := range r.problems {
		fmt.Fprintln(w, "  "+p)
	}
	for _, set := range []map[string]metric{r.e2e, r.layers} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

// printHost writes the host block and the pinned settings.
func printHost(cfg config) {
	w := cfg.report
	fmt.Fprintf(w, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)
	fmt.Fprintf(w, "settings: parallelism=%d work_mem=%d plan_cache=on wal_sync=%s vacuum_interval=%s checkpointer=off clients<=2\n",
		pinParallelism, pinWorkMem, pinWALSync, pinVacuumEvery)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%s trace=%v sizes=%+v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.sizes)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
