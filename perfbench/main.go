// Command perfbench is the repository's benchmark: three workloads that
// drive canary the way its users do, each checked against the workload
// generator's seeded ground truth.
//
//	perfbench --workload cold-scan|edit-session|serve-mixed --seed N \
//	          --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the same workload again with every top-level operation replaced by
// a layer-by-layer replay of the analysis spine, timed from outside, and
// reports per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// 0 only when every operation succeeded and matched the ground truth.
// WORKLOADS.md records why each workload exists and what each metric
// should respond to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

type config struct {
	seed     int64
	seconds  time.Duration
	traced   bool
	spansDir string
}

// The end-to-end metrics every workload reports. Each workload maps its
// own operations onto them (WORKLOADS.md): the set-up time, the main
// operation's median and tail, its cheap path's median, the work it
// completes per second, and the peak heap. Every time is normalized
// process CPU time: CPU time (cpuNow), which leaves out the hypervisor's
// steal, scaled by the host reference job (hostRef), which takes out the
// host's changing speed. On a shared virtual machine wall times moved
// between runs by more than any useful bound. The raw CPU and wall times
// are printed in the table beside them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_norm_ms_median", "ms"},
	{"op_norm_ms_tail", "ms"},
	{"fast_norm_ms_median", "ms"},
	{"throughput_per_norm_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayerExtra are the per-layer metrics measured outside the spine
// replay: the public entry point each workload calls, the server hop,
// and the tracing overhead itself.
var perLayerExtra = []string{
	"server.wire_ms", "server.job_ms",
	"server.cache_hits", "server.cache_misses", "server.rejected",
	"trace.ref_ms", "trace.op_ms", "trace.overhead_ms",
}

func perLayerNames() []string {
	var names []string
	for _, s := range spanNames {
		names = append(names, s+"_ms")
	}
	names = append(names, counterNames...)
	return append(names, perLayerExtra...)
}

// outcome counts operations and their failures: an error, a non-200
// response, findings that differ from the ground truth, a replay that
// drifts from canary's own answer, or a fold mismatch.
type outcome struct {
	attempted, failed int
	errs              []string
}

func (o *outcome) record(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 5 {
			o.errs = append(o.errs, err.Error())
		}
	}
}

// row is one line of the human-readable report: the workload's own name
// for a metric, the generic name it is reported under, and its samples.
type row struct {
	label, metric, unit string
	value               float64
	samples             string
}

type runResult struct {
	outcome
	rows    []row
	metrics map[string]float64
}

// add records one table row; metric "" marks a row printed for
// information only.
func (r *runResult) add(label, metric, unit string, value float64, samples string) {
	r.rows = append(r.rows, row{label, metric, unit, value, samples})
	if metric != "" {
		r.metrics[metric] = value
	}
}

// addQuantile reports one quantile of a timing sample under both names.
func (r *runResult) addQuantile(label, metric string, q Quantile) {
	samples := fmt.Sprintf("n=%d, %d beyond %s", q.N, q.Beyond, q.Name())
	if !q.Reportable() {
		samples = q.String()
		fmt.Fprintf(os.Stderr, "perfbench: %s %s\n", label, samples)
	}
	r.add(label, metric, "ms", q.Value, samples)
}

var workloads = map[string]func(config) (*runResult, error){
	"cold-scan":    coldScan,
	"edit-session": editSession,
	"serve-mixed":  serveMixed,
}

func main() {
	name := flag.String("workload", "", "cold-scan, edit-session or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload cold-scan|edit-session|serve-mixed, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		spansDir: *spans,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}

	names := perLayerNames()
	if !cfg.traced {
		names = names[:0]
		for _, m := range endToEnd {
			names = append(names, m.name)
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	units := make(map[string]string)
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	for _, n := range names {
		u, ok := units[n]
		if !ok {
			u = metricUnit(n)
		}
		out.Metrics[n] = metric{Value: res.metrics[n], Unit: u}
	}

	fmt.Printf("# %s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	for _, r := range res.rows {
		label := r.label
		if r.metric != "" && r.metric != r.label {
			label += " [" + r.metric + "]"
		}
		fmt.Printf("%-44s %14.4f %-7s %s\n", label, r.value, r.unit, r.samples)
	}
	if cfg.traced {
		for _, n := range names {
			fmt.Printf("%-44s %14.4f %s\n", n, res.metrics[n], metricUnit(n))
		}
	}
	fmt.Printf("%-44s %14.4f %-7s attempted=%d failed=%d\n", "error_rate", errorRate(res.outcome), "ratio", res.attempted, res.failed)
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: failure: %s\n", e)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func errorRate(o outcome) float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// finishTrace turns a traced run's spine into per-layer metrics, adds the
// tracing overhead (mean traced operation wall minus mean untraced
// reference wall), and writes the spans out.
func finishTrace(cfg config, workload string, res *runResult, sp *spine, refMS []float64) error {
	layers, err := sp.layerMetrics()
	if err != nil {
		res.record(fmt.Errorf("span tree: %w", err))
		return nil
	}
	var opMS []float64
	for _, s := range sp.rec.Spans() {
		if s.Parent == -1 {
			opMS = append(opMS, ms(s.Wall()))
		}
	}
	layers["trace.ref_ms"] = mean(refMS)
	layers["trace.op_ms"] = mean(opMS)
	layers["trace.overhead_ms"] = mean(opMS) - mean(refMS)
	for k, v := range layers {
		res.metrics[k] = v
	}
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", workload, cfg.seed)))
	if err != nil {
		return err
	}
	if err := sp.rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
