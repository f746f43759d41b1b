// Command vpbench is the repository's end-to-end benchmark. It drives
// the mapping system only through its public functions — scenario,
// verfploeter through Scenario.Measure, dataset, monitor.Session,
// server.Tenant/Server.Handler and obsv — on three seeded workloads
// (see README.md for why each exists and which layer metric should move
// which end-to-end metric):
//
//	sweep-internet    repeated full rounds at the internet tier, each
//	                  streamed to a v4 dataset
//	monitor-internet  a sampled, prediction-fused monitor session with a
//	                  scripted prepend change and revert
//	serve-medium      a vp-server tenant behind a loopback listener,
//	                  open-loop lookups and drift polls beside epoch
//	                  advances, then a closed-loop throughput phase
//
// Usage (from the repository root, normally through run.sh):
//
//	vpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable lines go to standard output first; the last line is one
// JSON object {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end metrics of BENCHMARK.json, measured
// with instrumentation off; with --trace 1 they are its per-layer
// metrics, measured with an obsv registry attached and every span
// written to .bench_build/trace/<workload>-<seed>.json (Chrome
// trace-event JSON, which Perfetto opens).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one reported value, in the output's JSON shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome: operation and failure counts,
// metric values, and the human-readable lines printed before the JSON.
type report struct {
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
	lines     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// op counts one attempted operation.
func (r *report) op() { r.attempted++ }

// fail counts one failed operation and records why (the first few
// reasons are printed).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// timing prints a Timing with its tail percentile and sample count.
func (r *report) timing(name, unit string, scale float64, xs []float64) Timing {
	t := summarize(xs)
	if t.TailP > 0 {
		r.printf("%-24s median=%.4f %s p%g=%.4f %s n=%d", name, t.Median*scale, unit,
			t.TailP, t.Tail*scale, unit, t.N)
	} else {
		r.printf("%-24s median=%.4f %s n=%d (fewer than 10 samples beyond the median)",
			name, t.Median*scale, unit, t.N)
	}
	return t
}

// spec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var workloads = map[string]func(options, *report) error{
	"sweep-internet":   runSweep,
	"monitor-internet": runMonitor,
	"serve-medium":     runServe,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
	}
	r := newReport()
	if err := fn(o, r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	r.set("peak_rss_mb", peakRSSMB())

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	out.Correct = r.failed == 0 && r.attempted > 0

	if o.trace {
		for _, m := range sp.PerLayer {
			v, ok := r.values[m.Name]
			switch {
			case isIdle(o.workload, m.Name):
				// the layer does no work on this workload: 0 when unset
			case !ok:
				return fmt.Errorf("per-layer metric %s was not measured", m.Name)
			case v == 0 && !slices.Contains(zeroOK, m.Name):
				return fmt.Errorf("per-layer metric %s reads 0 on a workload that exercises its layer", m.Name)
			}
			out.Metrics[m.Name] = metric{v, m.Unit}
		}
	} else {
		for _, m := range sp.EndToEnd {
			v, ok := r.values[m.Name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			out.Metrics[m.Name] = metric{v, m.Unit}
		}
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}

	fmt.Printf("workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	fmt.Printf("%-24s %d of %d operations failed (%.6f)\n", "error_frac", r.failed, r.attempted,
		ratio(float64(r.failed), float64(r.attempted)))
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// idleMetrics lists, per workload, the per-layer metrics whose layer does
// no work there (the README's table): they read 0 when unset. An entry
// ending in "." covers every metric of that layer. Every other per-layer
// metric must be measured and, unless listed in zeroOK, nonzero, so that
// a renamed obsv span or counter cannot pass for an idle layer.
var idleMetrics = map[string][]string{
	"sweep-internet": {"monitor.", "predict.", "server.", "loadgen.",
		"bgp.delta_s", "bgp.delta_computes", "bgp.cone_asns", "bgp.route_cache_hit_ratio",
		"bgp.assign_blocks_reused", "self.monitor_s", "self.bgp_s", "self.server_s", "self.http_s"},
	"monitor-internet": {"dataset.", "server.", "loadgen.",
		"self.dataset_s", "self.server_s", "self.http_s", "self.vpbench_s", "self.scenario_s"},
	"serve-medium": {"dataset.", "monitor.",
		"bgp.delta_s", "bgp.delta_computes", "bgp.cone_asns", "bgp.route_cache_hit_ratio",
		"bgp.assign_blocks_reused", "predict.hits", "predict.skipped_strata",
		"self.dataset_s", "self.vpbench_s", "self.scenario_s", "self.bgp_s"},
}

// zeroOK are the per-layer metrics that may read 0 where their layer
// works: a count of rare events, or a difference.
var zeroOK = []string{"predict.misses", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"server.drift_blocked_frac", "trace.overhead_frac"}

func isIdle(workload, name string) bool {
	for _, e := range idleMetrics[workload] {
		if name == e || strings.HasSuffix(e, ".") && strings.HasPrefix(name, e) {
			return true
		}
	}
	return false
}

// traceDir holds the traced runs' Chrome trace files. It lies under the
// build directory, which version control ignores.
var traceDir = filepath.Join(".bench_build", "trace")

func tracePath(o options) string {
	return filepath.Join(traceDir, fmt.Sprintf("%s-%d.json", o.workload, o.seed))
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MiB, or NaN where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
