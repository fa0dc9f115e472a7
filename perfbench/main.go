// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed number of seconds, checks every output it produces
// against an oracle, and prints as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics, measured by spans the benchmark
// records around its own calls into each layer's public functions, and
// write the span tree to .bench_build/perfbench/traces. README.md maps
// every per-layer metric to the end-to-end metric it should move.
//
// Run it from the repository root through run.sh, which builds this
// command and the layouttool under test from the checkout:
//
//	bash perfbench/run.sh --workload figures-exact --seed 0 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order. Every workload reports every one; README.md gives each its
// per-workload meaning.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cold_ms", "ms"},
	{"warm_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json
// order. A workload that does not exercise a layer reports 0 for it: the
// layer did no work there.
var perLayer = []metricSpec{
	// figures-exact
	{"experiments.new_pipeline_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"exec.run_s", "s"},
	{"exec.ns_per_access", "ns"},
	{"exec.sim_accesses", "count"},
	{"exec.sim_cycles", "count"},
	{"coherence.ns_per_access", "ns"},
	{"coherence.coh_misses", "count"},
	{"coherence.false_sharing", "count"},
	{"coherence.invalidations", "count"},
	{"coherence.upgrades", "count"},
	{"workload.collect_s", "s"},
	{"sampling.samples", "count"},
	{"memo.mem_hits", "count"},
	{"memo.misses", "count"},
	{"core.new_analysis_s", "s"},
	{"core.suggest_s", "s"},
	{"core.best_s", "s"},
	{"concurrency.compute_s", "s"},
	{"concurrency.pairs", "count"},
	{"affinity.build_s", "s"},
	{"flg.build_s", "s"},
	{"flg.edges", "count"},
	{"cluster.greedy_s", "s"},
	// layoutd-mix
	{"server.full_p50_ms", "ms"},
	{"server.replay_p50_ms", "ms"},
	{"server.measure_p50_ms", "ms"},
	{"server.lint_p50_ms", "ms"},
	{"server.reject_p50_ms", "ms"},
	{"server.ladder_full", "count"},
	{"server.ladder_replay", "count"},
	{"server.ladder_static", "count"},
	{"server.shed", "count"},
	{"server.deadline_hit", "count"},
	{"server.degraded", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.lookups", "count"},
	{"memo.disk_write_s", "s"},
	{"memo.disk_read_s", "s"},
	{"memo.disk_bytes", "bytes"},
	{"memo.errors", "count"},
	{"driver.collect_s", "s"},
	{"driver.evaluate_s", "s"},
	{"irtext.parse_s", "s"},
	{"staticshare.lint_s", "s"},
	// golint-cli
	{"gofront.load_s", "s"},
	{"gofront.extract_s", "s"},
	{"gofront.suggest_s", "s"},
	{"gofront.packages", "count"},
	{"staticshare.findings", "count"},
	{"memo.hits", "count"},
}

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"figures-exact": runFigures,
	"layoutd-mix":   runLayoutd,
	"golint-cli":    runGolint,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: figures-exact, layoutd-mix or golint-cli")
		seed    = flag.Int64("seed", 0, "input seed; the same seed gives the same inputs (0 is the calibrated default)")
		seconds = flag.Float64("seconds", 20, "how long to measure")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		probe   = flag.String("probe", "", "run a child-process probe (golint-oracle or golint-layers) in the current directory and exit")
	)
	flag.Parse()
	if *probe != "" {
		if err := runProbe(*probe, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want figures-exact, layoutd-mix or golint-cli)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	b, err := newBench(*name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.tmp)
	if err := w(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one run's state: where it works, what it measured, and how many
// of its operations failed.
type bench struct {
	root     string // repository checkout: the working directory
	work     string // root/.bench_build/perfbench: builds, traces, counts
	tmp      string // this run's scratch directory, removed at exit
	workload string
	seed     int64
	dur      time.Duration
	tr       *tracer // nil in untraced runs

	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	// counts are the exactly repeatable counters of a traced run: the same
	// build at the same seed must reproduce every one of them.
	counts map[string]float64
	lines  []string
}

// newBench prepares a run of workload in the repository checkout that is
// the current directory.
func newBench(workload string, seed int64, seconds float64, traced bool) (*bench, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	work := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(work, "tmp"), workload+"-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		root: root, work: work, tmp: tmp, workload: workload, seed: seed,
		dur:    time.Duration(seconds * float64(time.Second)),
		e2e:    make(map[string]float64),
		layers: make(map[string]float64),
		counts: make(map[string]float64),
	}
	if traced {
		b.tr = newTracer()
	}
	b.logf("env: workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s",
		workload, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	return b, nil
}

// logf prints one human-readable line now and keeps it for the trace file.
func (b *bench) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	b.lines = append(b.lines, line)
	fmt.Println(line)
}

// check records one attempted operation; it fails when any of its checks
// failed (err non-nil).
func (b *bench) check(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.logf("FAIL %s: %v", what, err)
	}
}

// timing prints a series of durations in seconds under the workload's own
// name for it — median, tail percentile and sample count, in unit ("s" or
// "ms") — and returns the median in that unit.
func (b *bench) timing(label, unit string, secs []float64) float64 {
	scale := 1.0
	if unit == "ms" {
		scale = 1000
	}
	xs := make([]float64, len(secs))
	for i, s := range secs {
		xs[i] = s * scale
	}
	med := median(xs)
	tail := "no percentile has ten samples beyond it"
	if p, v, ok := tailPercentile(xs); ok {
		tail = fmt.Sprintf("p%g %.4f %s", p, v, unit)
	}
	b.logf("%s: median %.4f %s, %s, n=%d", label, med, unit, tail, len(xs))
	if len(xs) <= 12 {
		b.logf("  samples (%s): %.4f", unit, xs)
	}
	return med
}

// groupTiming prints a latency figure for operations in groups — the mean
// over groups of each group's median, in ms — and returns it.
func (b *bench) groupTiming(label string, groups map[string][]float64) float64 {
	n := 0
	for _, xs := range groups {
		n += len(xs)
	}
	v := meanOfMedians(groups) * 1000
	b.logf("%s: mean over %d groups of their median, %.4f ms, n=%d", label, len(groups), v, n)
	return v
}

// layerTime records a per-layer host time in seconds: the median duration
// of the spans of that name.
func (b *bench) layerTime(metric, span string) {
	b.layers[metric] = median(b.tr.durations(span))
}

// layerPerRep records, for each span name, the per-layer host time in
// seconds that a probe repeated reps times spent in it per repetition.
func (b *bench) layerPerRep(reps int, spans ...string) {
	for _, name := range spans {
		b.layers[name+"_s"] = sum(b.tr.durations(name)) / float64(reps)
	}
}

// count records an exactly repeatable per-layer counter.
func (b *bench) count(metric string, v float64) {
	b.layers[metric] = v
	b.counts[metric] = v
}

// finish checks the run's counters against earlier runs of the same build
// and seed, writes the trace file of a traced run, and prints the summary
// and the result line.
func (b *bench) finish(w io.Writer) error {
	metrics := make(map[string]any)
	specs := endToEnd
	values := b.e2e
	if b.tr != nil {
		b.check("counters repeat exactly across runs of this build at this seed", b.compareCounts())
		specs, values = perLayer, b.layers
		b.logf("the end-to-end figures above were measured with tracing on; their difference from an untraced run's is the tracing overhead")
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok && b.tr == nil {
			return fmt.Errorf("workload %s did not measure %s", b.workload, m.name)
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	ratio := 0.0
	if b.attempted > 0 {
		ratio = float64(b.failed) / float64(b.attempted)
	}
	b.logf("fail_ratio: %g (%d failed of %d attempted)", ratio, b.failed, b.attempted)
	if b.tr != nil {
		if err := b.writeTrace(); err != nil {
			return err
		}
	}
	if b.attempted == 0 {
		return fmt.Errorf("workload %s attempted nothing", b.workload)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// compareCounts compares this run's exactly repeatable counters with the
// first traced run of the same build, workload and seed, recording them
// when this is the first.
func (b *bench) compareCounts() error {
	build, err := executableHash()
	if err != nil {
		return err
	}
	dir := filepath.Join(b.work, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", b.workload, b.seed, build[:16]))
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data, err := json.MarshalIndent(b.counts, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]float64
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var diffs []string
	for name, v := range b.counts {
		if w, ok := want[name]; !ok || w != v {
			diffs = append(diffs, fmt.Sprintf("%s=%g (first run %g)", name, v, w))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		return fmt.Errorf("counters differ from %s: %s", path, strings.Join(diffs, ", "))
	}
	return nil
}

// executableHash identifies the build: the benchmark binary links every
// layer it measures, so a program change changes the hash.
func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeTrace writes the traced run's spans, metrics and log to
// .bench_build/perfbench/traces.
func (b *bench) writeTrace() error {
	dir := filepath.Join(b.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"log":        b.lines,
		"end_to_end": b.e2e,
		"per_layer":  b.layers,
		"counts":     b.counts,
		"spans":      b.tr.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.json", b.workload, b.seed, time.Now().UnixNano()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	b.logf("trace: %d spans written to %s", len(b.tr.spans), path)
	return nil
}

// resetPeakRSS restarts this process's peak resident set size from its
// current size (Linux clear_refs code 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns this process's peak resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
