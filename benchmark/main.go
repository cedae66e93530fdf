// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload from one process and prints every metric by name and unit,
// then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload eval_parallel --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the traced run,
// which reports the per-layer metrics and writes its spans to --out.
// --smoke runs a tiny version of the workload for tests. RATIONALE.md
// explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	smoke    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a finished run: the result line plus notes for the human
// readable part of the output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

// metricDef names a metric and its unit; better and bound live in
// BENCHMARK.json (TestMetricsMatchBenchmarkJSON checks that the two lists
// agree).
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, reported on every workload. The
// latency metrics are printed on the report lines but not gated
// (latencyNote).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"success_rate", "ratio"},
	{"alloc_mb_per_op", "MB"},
	{"peak_heap_mb", "MB"},
	{"eval_geomean_ms", "ms"},
	{"evals_per_s", "1/s"},
}

// perLayer are the --trace 1 metrics, reported on every workload.
var perLayer = []metricDef{
	{"dgr.new_ms", "ms"},
	{"dgr.eval_ms", "ms"},
	{"dgr.close_ms", "ms"},
	{"lang.parse_us", "us"},
	{"lang.digest_us", "us"},
	{"lang.lift_us", "us"},
	{"graph.allocs_per_op", "count"},
	{"graph.reclaimed_per_op", "count"},
	{"graph.peak_used_vertices", "count"},
	{"sched.tasks_per_op", "count"},
	{"sched.tasks_per_s", "1/s"},
	{"sched.steals_per_op", "count"},
	{"sched.stolen_per_steal", "count"},
	{"sched.idle_polls_per_op", "count"},
	{"sched.exec_balance", "ratio"},
	{"sched.remote_share", "ratio"},
	{"reduce.rewrites_per_op", "count"},
	{"reduce.tasks_per_rewrite", "ratio"},
	{"core.cycles_per_op", "count"},
	{"core.mt_runs_per_op", "count"},
	{"core.mark_share", "ratio"},
	{"core.reclaimed_per_cycle", "count"},
	{"core.expunged_per_op", "count"},
	{"core.retracted_share", "ratio"},
	{"core.mr_ms", "ms"},
	{"core.mt_ms", "ms"},
	{"core.sweep_ms", "ms"},
	{"core.deadlock_verdict_ms", "ms"},
	{"serve.submit_us", "us"},
	{"serve.server_ms", "ms"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.deadlock_share", "ratio"},
	{"serve.queue_max", "count"},
	{"serve.recycles_per_op", "count"},
	{"serve.rejected_share", "ratio"},
	{"serve.check_violations", "count"},
	{"go.gc_cycles_per_op", "count"},
	{"bench.gen_lag_ms", "ms"},
	{"bench.untimed_share", "ratio"},
	{"bench.trace_overhead.eval_geomean_ms", "ratio"},
	{"bench.trace_overhead.evals_per_s", "ratio"},
	{"bench.trace_overhead.latency_p50_ms", "ratio"},
	{"bench.trace_overhead.latency_p90_ms", "ratio"},
	{"bench.trace_overhead.alloc_mb_per_op", "ratio"},
	{"interp.dgr.eval_ms", "ms"},
	{"interp.graph.allocs_per_op", "count"},
	{"interp.sched.tasks_per_op", "count"},
	{"interp.sched.steals_per_op", "count"},
	{"interp.reduce.rewrites_per_op", "count"},
	{"interp.core.cycles_per_op", "count"},
	{"compiled.dgr.eval_ms", "ms"},
	{"compiled.graph.allocs_per_op", "count"},
	{"compiled.sched.tasks_per_op", "count"},
	{"compiled.sched.steals_per_op", "count"},
	{"compiled.reduce.rewrites_per_op", "count"},
	{"compiled.core.cycles_per_op", "count"},
}

// engineMetrics are the machine-level metrics also reported per engine, as
// "<engine>.<metric>": the ones a change to one engine moves. Only
// eval_parallel runs both engines; the others report 0 for compiled.
var engineMetrics = []string{
	"dgr.eval_ms", "graph.allocs_per_op", "sched.tasks_per_op",
	"sched.steals_per_op", "reduce.rewrites_per_op", "core.cycles_per_op",
}

// workloads maps a workload name to its runner. serve_mixed is not in
// BENCHMARK.json: on the 2-vCPU host it was built on, its latency and
// max-rate figures spread too widely across runs to gate a change
// (RATIONALE.md).
var workloads = map[string]func(config) (*report, error){
	"eval_parallel": func(c config) (*report, error) { return runEval(c, newEvalParallel) },
	"eval_short":    func(c config) (*report, error) { return runEval(c, newEvalShort) },
	"serve_mixed":   runServe,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: eval_parallel, eval_short or serve_mixed")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&c.outDir, "out", "", "directory for the traced run's span file (none if empty)")
	flag.BoolVar(&c.smoke, "smoke", false, "tiny run that exercises every path (not for measuring)")
	flag.Parse()
	c.trace = trace == 1
	run, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, seconds %v, trace %d)\n", c.workload, c.seconds, trace)
		os.Exit(2)
	}
	r, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout, c); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// newReport fills a report with the values for defs, in defs' units.
func newReport(t *tally, values map[string]float64, defs []metricDef) *report {
	r := &report{
		Correct:   t.wrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	if _, ok := r.Metrics["success_rate"]; ok {
		r.Metrics["success_rate"] = metric{Value: ratio(float64(t.attempted-t.failed), float64(t.attempted)), Unit: "ratio"}
	}
	return r
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencyNote prints the latency metrics that are reported but not gated
// (RATIONALE.md gives the reason): latency_p50_ms and latency_p90_ms as
// the workload's metrics vals define them, and latency_p99_ms of the
// latencies xs (ms), pooled over the run, with its sample count.
func (r *report) latencyNote(vals map[string]float64, xs []float64) {
	v, used := tailPercentile(xs, 0.99)
	_, beyond := percentile(xs, used)
	r.note("not gated: latency_p50_ms %.4g ms, latency_p90_ms %.4g ms, latency_p99_ms %.4g ms (p%.4g over %d samples, %d beyond it)",
		vals["latency_p50_ms"], vals["latency_p90_ms"], v, 100*used, len(xs), beyond)
}

// print writes the human-readable lines, then the JSON result line.
func (r *report) print(w io.Writer, c config) error {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		c.workload, c.seed, c.seconds, c.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d error_rate=%.6g\n",
		r.Correct, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// overheads sets bench.trace_overhead.* as traced cost over untraced cost
// (1 = no overhead; for a rate the ratio is inverted so >1 is slower).
func overheads(untraced, traced map[string]float64, into layerSet) {
	for _, name := range []string{"eval_geomean_ms", "evals_per_s", "latency_p50_ms", "latency_p90_ms", "alloc_mb_per_op"} {
		v := ratio(traced[name], untraced[name])
		if strings.HasSuffix(name, "_per_s") {
			v = ratio(untraced[name], traced[name])
		}
		into["bench.trace_overhead."+name] = v
	}
}

// secondsDur converts the --seconds share of a phase to a duration.
func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
