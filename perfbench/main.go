// Command perfbench is the repository's benchmark: four workloads that
// time what users of the simulator and of aosd wait for, a traced run
// that splits the cost by layer, and a command that recomputes the
// sampled-vs-exact Fig 14 error. See README.md for the workloads, the
// metrics and what each per-layer metric should move.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--short]
//	perfbench --errbound [--seed <n>] [--insts <n>]
//	perfbench --cell <benchmark/scheme> [--insts <n>]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the full report (machine identity, rounds, checks, extra figures).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line printed before the result: everything needed to
// compare two runs like with like.
type report struct {
	Schema    string             `json:"schema"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Short     bool               `json:"short"`
	Env       environment        `json:"env"`
	Rounds    int                `json:"rounds"`
	RoundWall []float64          `json:"round_wall_s,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []string           `json:"checks"`
	Errors    []string           `json:"errors,omitempty"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	out      string // directory for spill dirs and span files
	workers  int    // worker goroutines and client connections (= nproc)
}

// outcome is what a workload run produces.
type outcome struct {
	rounds    int
	roundWall []float64 // each round's wall time, in order
	attempted int64
	failed    int64
	metrics   map[string]metric
	checks    *checker
	extra     map[string]float64
	spanFile  string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, checks: &checker{}, extra: map[string]float64{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// workloadFunc runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fig14_exact":       runFig14Exact,
	"fig14_sampled":     runFig14Sampled,
	"schemes_realworld": runSchemesRealWorld,
	"aosd_mixed":        runAOSDMixed,
}

func main() {
	var cfg config
	var trace int
	var errbound bool
	var insts uint64
	var cell string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fig14_exact, fig14_sampled, schemes_realworld, aosd_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measure for about this many seconds: sets the number of whole rounds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.BoolVar(&cfg.short, "short", false, "tiny sizes: every workload end to end with all its checks, for tests")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for spill directories and span files")
	flag.BoolVar(&errbound, "errbound", false, "recompute the sampled-vs-exact Fig 14 geomean error and check it against the 2% bound")
	flag.StringVar(&cell, "cell", "", "run one sampled benchmark/scheme cell, cold then resumed from its checkpoints, and print wall time and peak RSS")
	flag.Uint64Var(&insts, "insts", 0, "with --errbound or --cell: per-cell instruction budget (0 = profile defaults)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()

	if errbound || cell != "" {
		var err error
		if cell != "" {
			err = runCell(cfg, cell, insts)
		} else {
			err = runErrorBound(cfg, insts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d\n", cfg.workload, trace)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if abs, err := filepath.Abs(cfg.out); err == nil {
		cfg.out = abs
	}
	steal := hostStealSeconds()
	out, err := run(cfg)
	if err == nil {
		out.extra["gc_cpu_s"] = gcCPUSeconds()
		out.extra["process_cpu_s"] = cpuTime().Seconds()
		out.extra["host_steal_s"] = hostStealSeconds() - steal
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	want := endToEndMetrics
	if cfg.trace {
		want = perLayerMetrics()
	}
	out.checks.metricSet(out.metrics, want)

	rep := report{
		Schema: "perfbench/report/v1", Workload: cfg.workload, Seed: cfg.seed,
		Seconds: cfg.seconds, Trace: cfg.trace, Short: cfg.short, Env: hostEnvironment(),
		Rounds: out.rounds, RoundWall: out.roundWall, Attempted: out.attempted, Failed: out.failed,
		Checks: out.checks.passed(), Errors: out.checks.errs,
		Extra: out.extra, SpanFile: out.spanFile, Metrics: out.metrics,
	}
	res := result{
		Correct: out.checks.ok(), Attempted: out.attempted, Failed: out.failed,
		Metrics: out.metrics,
	}
	for _, v := range []any{rep, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		for _, e := range out.checks.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
		os.Exit(1)
	}
}

// endToEndMetrics names every metric an untraced run reports, with its
// unit; BENCHMARK.json lists the same set.
var endToEndMetrics = map[string]string{
	"wall_s":         "s",
	"cpu_s":          "s",
	"peak_rss_mb":    "MB",
	"setup_s":        "s",
	"cell_p50_ms":    "ms",
	"cold_p50_ms":    "ms",
	"warm_p50_ms":    "ms",
	"resumed_wall_s": "s",
	"served_rps":     "1/s",
}

// sortedNames returns a metric map's names in order (for messages).
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m { //aoslint:allow mapiter — sorted before use
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
