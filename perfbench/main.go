// Command perfbench is the repository benchmark. It drives the paper's
// own experiments and the tecserve front end over four workloads, each
// chosen to load different layers:
//
//	tablei      Table I, serial: Alpha + ten hypothetical chips (SMW setup, dense eig)
//	serve-hot   open-loop warm traffic on cached systems (HTTP/JSON, hash, SMW correction)
//	serve-cold  open-loop traffic where every request is a new design (assembly, factorization)
//	dtm         backward-Euler DTM policy runs (transient stepping, band solves)
//
// With -trace 0 it reports the end-to-end metrics with the program's
// observability registry off; with -trace 1 it runs the same work
// under the registry and flight recorder and reports per-layer metrics
// and exact work counters instead. Every answer is checked; the last
// line of standard output is the JSON result record.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tablei --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metric is one named number of the result record.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config holds the command-line settings every workload sees.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

// report is what one workload run produces.
type report struct {
	// attempted counts the operations the run tried (requests, chip
	// rows, policy runs); failed counts those that errored or failed a
	// correctness check.
	attempted, failed int64
	metrics           map[string]metric
	// details carries workload facts that are not metrics (sample
	// counts, supported percentiles, generator lateness).
	details map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, details: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records one failed operation with its reason on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// e2eMetrics are the end-to-end metrics every untraced run reports,
// with tracing off; perLayerMetrics are those every traced run reports.
// BENCHMARK.json lists the same names.
var (
	e2eMetrics = []string{"setup_s", "wall_s", "alloc_mb", "heap_inuse_mb", "p50_ms", "p90_ms", "p99_ms", "goodput_rps"}

	perLayerMetrics = []string{
		"serve.overhead_us", "serve.gate.queue_wait_p50_us", "serve.gate.queue_wait_p99_us",
		"serve.system_cache.hit_ratio", "serve.shed_ratio", "serve.sweep.coalesced",
		"chipload.load_us",
		"engine.solver_cache.hits", "engine.solver_cache.misses", "engine.factor_cache.misses",
		"core.new_system_ms", "core.first_solve_ms", "core.peak_at_us",
		"core.optimize_current_ms", "core.optimize_current.evaluations", "core.optimize_current.evaluations_per_run",
		"core.runaway_limit_us", "core.runaway.probes", "core.runaway.probes_per_search",
		"core.greedy_deploy_ms", "core.full_cover_ms", "core.greedy.iterations", "core.hkl_us",
		"thermal.build_package_ms", "thermal.reusable_setup_ms", "thermal.reusable_setup.rank",
		"thermal.solve_at_current_us", "thermal.peak_silicon_us",
		"thermal.regime.smw", "thermal.regime.near_limit", "thermal.regime.fallback",
		"sparse.factor_ms", "sparse.factor.n", "sparse.factor_entries", "sparse.solve_us",
		"sparse.smw.setup_ms", "sparse.smw.correct_us",
		"sparse.band.factors", "sparse.band.solves", "sparse.smw.setups", "sparse.smw.corrections", "sparse.cg.solves",
		"eigen.symeig_ms", "eigen.symeig.dim",
		"dtm.run_ms", "transient.step_us", "dtm.steps", "dtm.current_changes", "dtm.factorizations",
		"obs.trace_overhead_ratio", "loadgen.late_p99_ms", "counters.repeat_exact",
		"self.serve_ms", "self.chipload_ms", "self.engine_ms", "self.core_ms", "self.thermal_ms",
		"self.sparse_ms", "self.eigen_ms", "self.transient_ms", "self.dtm_ms", "self.unattributed_ms",
	}
)

// checkMetricSet returns an error unless got holds exactly want.
func checkMetricSet(got map[string]metric, want []string) error {
	seen := map[string]bool{}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		seen[n] = true
	}
	for n := range got {
		if !seen[n] {
			return fmt.Errorf("metric %s is not in the benchmark's list", n)
		}
	}
	return nil
}

var workloads = map[string]func(config) (*report, error){
	"tablei":     runTableI,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
	"dtm":        runDTM,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: tablei, serve-hot, serve-cold or dtm")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (1 selects the canonical HC01..HC10 suite for tablei)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run (s)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&cfg.root, "root", ".", "repository root (reference files are read from here)")
	record := fs.String("record-tablei", "", "write the formatted Table I for -seed to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if *record != "" {
		if err := recordTableI(cfg.seed, *record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := e2eMetrics
	if cfg.trace {
		// Set-up is an end-to-end figure; the traced run reports layers.
		delete(rep.metrics, "setup_s")
		want = perLayerMetrics
	}
	if err := checkMetricSet(rep.metrics, want); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	info := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"trace":       cfg.trace,
		"fingerprint": fingerprint(cfg.root),
		"details":     rep.details,
	}
	line, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	printTable(stdout, rep)
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: the run attempted no operation")
		return 1
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable prints every metric by name with its unit, plus the
// error ratio, for a human reader.
func printTable(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	ratio := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(w, "%-36s %16.6g %s (%d of %d)\n", "error_ratio", ratio, "1", rep.failed, rep.attempted)
}
