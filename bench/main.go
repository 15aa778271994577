// Command bench is the repository's benchmark ledger: five workloads timed
// from outside, through the modules' public functions, with every timing
// divided by an interleaved sequential reference. See README.md.
//
//	bash bench/run.sh --workload mjpeg_batch --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --compare bench/baseline/a.json bench/baseline/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run (see -table)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", runSeconds, "measured seconds")
	traceArg := flag.String("trace", "0", "0: end-to-end metrics, instrumentation off; 1: per-layer metrics from a traced run")
	ledger := flag.String("ledger", "", "append this run's result to a ledger file, for -compare")
	compare := flag.Bool("compare", false, "compare two ledger files given as arguments; exit 1 when a metric worsened beyond its bound")
	table := flag.Bool("table", false, "print the workload, metric and interaction tables")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the tables define it")
	flag.Parse()

	switch {
	case *table:
		writeTables(os.Stdout)
	case *manifest:
		data, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two ledger files"))
		}
		ok, err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		traced, err := strconv.ParseBool(*traceArg)
		if err != nil {
			fatal(fmt.Errorf("-trace %q: want 0 or 1", *traceArg))
		}
		if findWorkload(*workloadName) == nil {
			fatal(fmt.Errorf("unknown workload %q; have %s", *workloadName, strings.Join(workloadNames(), ", ")))
		}
		if *seconds < 1 {
			fatal(errors.New("-seconds must be at least 1"))
		}
		cfg := runConfig{workload: *workloadName, seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: traced, shape: fullShape, warmup: 2, probeBudget: 200 * time.Millisecond}
		res, err := run(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if *ledger != "" {
			if err := appendLedger(*ledger, cfg, res); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runConfig is one invocation. The smoke test shrinks shape, warmup and the
// budgets; the command line always runs the full shape.
type runConfig struct {
	workload    string
	seed        uint64
	budget      time.Duration
	traced      bool
	shape       shape
	warmup      int
	minReps     int           // per mode; 0 lets the budget decide
	probeBudget time.Duration // per layer probe
	traceDir    string        // where the traced run writes its Chrome trace; "" selects bench/out
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run executes one invocation and prints its human-readable report to w.
func run(cfg runConfig, w io.Writer) (*result, error) {
	// The run shape is fixed, never derived from the host.
	goruntime.GOMAXPROCS(benchProcs)
	printEnv(w, hostEnv(), cfg)

	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.shape)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "workload %s  seed %d  input hash %016x  %d ages per repetition\n", wl.name, cfg.seed, wl.inputHash, wl.ages)

	res := &result{Metrics: map[string]value{}}
	if cfg.traced {
		if err := runTraced(cfg, wl, res, w); err != nil {
			return nil, err
		}
	} else {
		runEndToEnd(cfg, wl, res, w)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runEndToEnd measures the end-to-end metrics with the program's own
// instrumentation off.
func runEndToEnd(cfg runConfig, wl *workload, res *result, w io.Writer) {
	st := runLoop(wl, []obsMode{obsOff}, loopConfig{warmup: cfg.warmup, budget: cfg.budget, minReps: cfg.minReps}, nil)[0]
	res.Attempted, res.Failed = st.ages, st.failed
	vals := map[string]float64{
		"setup_s":                median(st.setupS),
		"speedup_vs_seq":         median(st.speedup),
		"age_latency_p50_vs_seq": percentile(st.lat, 0.50),
		"cpu_vs_seq":             median(st.cpuX),
		"allocs_per_age":         median(st.allocs),
	}
	fmt.Fprintf(w, "%d repetitions, %d ages, %d failed %s\n", st.reps, st.ages, st.failed, describeErr(st.firstErr))
	fmt.Fprintf(w, "medians over %d repetitions; latency percentiles over %d ages\n", len(st.speedup), len(st.lat))
	for _, m := range endToEnd {
		res.Metrics[m.Name] = finite(vals[m.Name], m.Unit)
		fmt.Fprintf(w, "  %-26s %14.6g %-6s (%s is better, bound %.2f)\n", m.Name, vals[m.Name], m.Unit, m.Better, m.Bound)
	}
	// Not part of the contract's end-to-end list (too noisy to bound, see
	// README); the traced run reports the first two as per-layer metrics.
	fmt.Fprintf(w, "  also: age_latency_p95_vs_seq %.4g x, heap_kb_per_age %.4g KiB, reference %.3f ms/age, raw latency p50 %.3f ms p95 %.3f ms\n",
		percentile(st.lat, 0.95), median(st.heapKB), median(st.refMs), percentile(st.latMs, 0.50), percentile(st.latMs, 0.95))
}

// finite keeps the last line valid JSON when nothing was measured (every
// repetition failed): a missing value reads 0 beside "correct": false.
func finite(v float64, unit string) value {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return value{v, unit}
}

// ---- environment header ----------------------------------------------------

type env struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Shards     int    `json:"analyzer_shards"`
}

func hostEnv() env {
	return env{
		Commit:     commit(),
		NProc:      goruntime.NumCPU(),
		GoVersion:  goruntime.Version(),
		GOMAXPROCS: benchProcs,
		Workers:    benchWorkers,
		Shards:     benchShards,
	}
}

// commit names the source the numbers belong to. run.sh sets BENCH_COMMIT
// when its checkout is a git repository; a driver's bare checkout is not.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func printEnv(w io.Writer, e env, cfg runConfig) {
	fmt.Fprintf(w, "env: commit %s  nproc %d  %s  GOMAXPROCS %d  workers %d  analyzer shards %d  budget %v  traced %v\n",
		e.Commit, e.NProc, e.GoVersion, e.GOMAXPROCS, e.Workers, e.Shards, cfg.budget, cfg.traced)
}

// ---- ledger files ----------------------------------------------------------

// ledgerFile is a set of runs from one host at one commit: what -compare
// reads and bench/baseline/ holds.
type ledgerFile struct {
	Env  env         `json:"env"`
	Runs []ledgerRun `json:"runs"`
}

type ledgerRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	result
}

func readLedger(path string) (*ledgerFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lf ledgerFile
	if err := json.Unmarshal(data, &lf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &lf, nil
}

func appendLedger(path string, cfg runConfig, res *result) error {
	lf, err := readLedger(path)
	if errors.Is(err, os.ErrNotExist) {
		lf, err = &ledgerFile{Env: hostEnv()}, nil
	}
	if err != nil {
		return err
	}
	lf.Runs = append(lf.Runs, ledgerRun{Workload: cfg.workload, Seed: cfg.seed, Seconds: int(cfg.budget.Seconds()), Traced: cfg.traced, result: *res})
	data, err := json.MarshalIndent(lf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
