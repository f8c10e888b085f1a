// Command perfbench is DataSpread's benchmark. One invocation runs one
// workload for a fixed time on inputs generated from a seed, checks every
// result against a model built from the same generator, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (what a user of the
// system sees); with -trace 1 the same workload runs with spans recorded
// around every call the benchmark makes into the program, and the metrics
// are the per-layer ones. The spans are written to
// <work>/traces/<workload>-s<seed>.json when the run ends.
//
// Workloads (see BENCHMARK.json for the reasons):
//
//   - wire-oltp: two client connections against a separate dataspreadd
//     process, closed loop, prepared point and range reads plus autocommit
//     UPDATE/INSERT. BENCHMARK.json does not list it: its throughput and
//     latencies moved by up to half between runs with the host's CPU steal
//     on the 2-vCPU reference machine, and by 30% even when the host
//     withheld under 1%, so it cannot hold a regression bound there. It
//     runs on request and in the smoke test, and the traced runs of the
//     other workloads measure the client, wire and server layers through a
//     dataspreadd probe.
//   - sheet-interactive: one file-backed workbook with DBSQL formulas
//     parameterised by cells, a window-bound table on a second sheet and a
//     seeded session of parameter edits, scrolls and edits inside the bound
//     region.
//   - ingest-scan: a durable prepared-INSERT load in small transactions,
//     then rounds of reopen, point reads and analytic queries on the cold
//     file.
//
// Every workload reports the same end-to-end metrics, so each one is defined
// per workload: "read" is its cheapest lookup, "query" its analytic
// operation, "write" its durable change. Latencies are quantiles of every
// operation of the timed phase and the set-up time is the median of several
// set-ups spread over the run (see setupSampler).
//
// The gated times of sheet-interactive and ingest-scan are CPU time, scaled
// to a reference speed (see refprobe.go). On the 2-vCPU reference machine,
// wall-clock figures of the same code moved by up to half between runs: the
// host withheld up to a third of the CPU time ("steal"), and a two-worker
// recompute waited for whichever vCPU the host had paused, so steal doubled
// it; and with no steal at all the machine's speed drifted by a fifth over
// minutes. So the process runs Go code on one CPU (GOMAXPROCS 1; the engine
// keeps nproc workers, so the parallel scan, group and join paths still run,
// interleaved), each operation is timed by the CPU time the process spent on
// it, which the kernel's steal accounting keeps free of stolen time, and
// every such time is scaled by the run's reference probe, which follows most
// of the drift. The wall-clock quantiles go into the fingerprint, with three
// figures that are not metrics: the operations per second over the whole
// phase (ops_s) and the median time to reopen the closed workbook
// (reopen_ms), both wall-clock, which moved by more than a regression bound
// allows, and the query and write tails (see reportLatency): ingest-scan has
// too few queries for a 90th percentile with ten samples beyond it, and the
// write tails, set by fsync and checkpoint stalls, were not shown steady.
//
// wire-oltp's figures are wall-clock and not scaled: its work runs in the
// daemon, whose CPU time this process cannot see.
//
// run.sh builds the program and supplies -daemon, -work and -source.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dataspread/dataspread/internal/core"
)

// Fixed engine defaults the fingerprint reports. They are the program's
// defaults, not settings: the benchmark never changes them.
const (
	poolPages         = 4096 // sqlexec default buffer pool capacity
	decodedCachePages = 4096 // tablestore per-store decoded page cache
	flushPolicy       = "fsync on every commit (default)"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: both metric sets (the traced run
// fills perLayer, both runs fill endToEnd), operation counts and the first
// correctness violation, if any.
type outcome struct {
	endToEnd  map[string]metric
	perLayer  map[string]metric
	attempted int64
	failed    int64
	failures  map[string]int64 // failed operations by name
	mismatch  error
	info      map[string]any // table sizes and other fingerprint facts
	cpuTimed  bool           // times are CPU time, to be scaled by the reference probe
}

func newOutcome() *outcome {
	return &outcome{
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
		failures: map[string]int64{},
		info:     map[string]any{},
	}
}

// fail counts one failed operation under its name. Failures are never
// retried: a refused or failed operation counts as missing every latency
// limit, so it is reported rather than hidden.
func (o *outcome) fail(op string, err error) {
	o.failed++
	if o.failures[op] == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", op, err)
	}
	o.failures[op]++
}

// check records the first correctness violation; any violation makes the run
// incorrect.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok && o.mismatch == nil {
		o.mismatch = fmt.Errorf(format, args...)
	}
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds float64
	tr      *tracer // nil when untraced
	daemon  string  // path to the dataspreadd binary
	dir     string  // private scratch directory of this run
	ref     *refProbe
}

type workload func(e *env) (*outcome, error)

var workloads = map[string]workload{
	"wire-oltp":         runWireOLTP,
	"sheet-interactive": runSheetInteractive,
	"ingest-scan":       runIngestScan,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: wire-oltp, sheet-interactive or ingest-scan")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		daemon  = flag.String("daemon", "", "path to a dataspreadd binary built from this checkout")
		work    = flag.String("work", ".bench_build", "directory for scratch files, traces and results")
		source  = flag.String("source", "unknown", "identifier of the source tree under test")
	)
	flag.Parse()
	// One CPU for Go code; see the package comment.
	runtime.GOMAXPROCS(1)
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload wire-oltp|sheet-interactive|ingest-scan, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		die(err)
	}
	dir, err := os.MkdirTemp(*work, "run-"+*name+"-")
	if err != nil {
		die(err)
	}
	e := &env{seed: *seed, seconds: *seconds, daemon: *daemon, dir: dir, ref: newRefProbe()}
	if *trace == 1 {
		e.tr = newTracer()
	}
	ticksBefore := readTicks()
	out, err := run(e)
	ticksAfter := readTicks()
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", dir, rmErr)
	}
	if err != nil {
		die(fmt.Errorf("%s: %w", *name, err))
	}

	fp := fingerprint(*name, *seed, *source, *trace)
	fp["host_steal_pct"] = ticksAfter.stealSince(ticksBefore)
	for k, v := range out.info {
		fp[k] = v
	}
	fp["clock"] = "wall"
	if out.cpuTimed {
		fp["clock"] = fmt.Sprintf("process CPU time, scaled to a %g ms reference probe", refProbeMS)
		probe := e.ref.median()
		fp["ref_probe_cpu_ms"] = probe
		fp["ref_probe_samples"] = len(e.ref.cpu)
		scaleTimes(out.endToEnd, refProbeMS/probe)
	}
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("# env %s\n", fpJSON)
	fmt.Printf("# operations attempted %d failed %d (share %.6f)\n", out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))
	if len(out.failures) > 0 {
		fj, _ := json.Marshal(out.failures)
		fmt.Printf("# failed operations %s\n", fj)
	}
	if out.mismatch != nil {
		fmt.Printf("# INCORRECT: %v\n", out.mismatch)
	}
	printMetrics("end-to-end", out.endToEnd)
	reported := out.endToEnd
	if e.tr != nil {
		printMetrics("per-layer", out.perLayer)
		reported = out.perLayer
		if err := e.tr.write(filepath.Join(*work, "traces", fmt.Sprintf("%s-s%d.json", *name, *seed)), fp); err != nil {
			die(err)
		}
	}
	if err := saveAndCompare(*work, *name, *seed, *trace, out.endToEnd); err != nil {
		die(err)
	}
	res := result{
		Correct:   out.mismatch == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   reported,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		die(err)
	}
	fmt.Println(string(line))
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func printMetrics(kind string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-10s %-34s %14.4f %s\n", kind, n, m[n].Value, m[n].Unit)
	}
}

// saveAndCompare keeps each run's end-to-end figures under <work>/results
// and, once both the untraced and the traced run of a workload and seed are
// there, prints the tracing overhead per end-to-end metric (traced minus
// untraced).
func saveAndCompare(work, name string, seed int64, trace int, e2e map[string]metric) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := func(t int) string { return filepath.Join(dir, fmt.Sprintf("%s-s%d-trace%d.json", name, seed, t)) }
	data, err := json.Marshal(e2e)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path(trace), data, 0o644); err != nil {
		return err
	}
	other, err := os.ReadFile(path(1 - trace))
	if err != nil {
		return nil // the other run has not happened yet
	}
	var prev map[string]metric
	if err := json.Unmarshal(other, &prev); err != nil {
		return fmt.Errorf("reading %s: %w", path(1-trace), err)
	}
	traced, untraced := e2e, prev
	if trace == 0 {
		traced, untraced = prev, e2e
	}
	names := make([]string, 0, len(untraced))
	for n := range untraced {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u, t := untraced[n], traced[n]
		rel := 0.0
		if u.Value != 0 {
			rel = (t.Value - u.Value) / u.Value * 100
		}
		fmt.Printf("# trace-overhead %-24s %+12.4f %s (%+.1f%%)\n", n, t.Value-u.Value, u.Unit, rel)
	}
	return nil
}

func fingerprint(name string, seed int64, source string, trace int) map[string]any {
	return map[string]any{
		"workload":            name,
		"seed":                seed,
		"trace":               trace,
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go_version":          runtime.Version(),
		"source":              source,
		"flush_policy":        flushPolicy,
		"pool_pages":          poolPages,
		"decoded_cache_pages": decodedCachePages,
	}
}

// --- latency samples ---

// samples collects latencies of one operation class in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the nearest-rank q-quantile (0 when empty).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(q*float64(len(c))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func median(v []float64) float64 { return samples(v).quantile(0.5) }

// rate is operations per second over a phase.
func rate(ops int, phase time.Duration) float64 { return float64(ops) / phase.Seconds() }

// stopwatch reads both clocks at the start of an operation.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuNow()} }

// elapsed returns the wall-clock time and the process's CPU time since the
// watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuNow() - s.cpu
}

// timings holds one operation class's latencies on both clocks.
type timings struct{ wall, cpu samples }

func (t *timings) add(wall, cpu time.Duration) {
	t.wall.add(wall)
	t.cpu.add(cpu)
}

// reportLatency stores a class's CPU-time median, and with gateTail its
// 90th percentile, as end-to-end metrics (see reportQuantiles). The
// fingerprint gets the wall-clock median and 90th percentile and, without
// gateTail, the CPU-time 90th percentile, unscaled.
func (o *outcome) reportLatency(class string, t timings, gateTail bool) {
	o.endToEnd[class+"_p50_ms"] = metric{t.cpu.quantile(0.50), "ms"}
	if gateTail {
		o.endToEnd[class+"_p90_ms"] = metric{t.cpu.quantile(0.90), "ms"}
	} else {
		o.info[class+"_cpu_p90_ms"] = t.cpu.quantile(0.90)
	}
	o.info[class+"_wall_p50_ms"] = t.wall.quantile(0.50)
	o.info[class+"_wall_p90_ms"] = t.wall.quantile(0.90)
	o.info[class+"_samples"] = len(t.cpu)
}

// reportQuantiles stores the median of one class's wall-clock latencies in
// ms as an end-to-end metric, and its 90th percentile: the highest
// percentile with at least ten samples beyond it in every class of every
// workload at the benchmark's run length. The 90th percentile is an
// end-to-end metric only with gateTail; otherwise it goes into the
// fingerprint. wire-oltp's query and write tails, set by fsync and
// checkpoint stalls, moved by more than a regression bound allows on the
// reference machine.
func (o *outcome) reportQuantiles(class string, s samples, gateTail bool) {
	o.endToEnd[class+"_p50_ms"] = metric{s.quantile(0.50), "ms"}
	if gateTail {
		o.endToEnd[class+"_p90_ms"] = metric{s.quantile(0.90), "ms"}
	} else {
		o.info[class+"_p90_ms"] = s.quantile(0.90)
	}
	o.info[class+"_samples"] = len(s)
}

// scaleTimes multiplies every metric measured in ms or s by scale.
func scaleTimes(m map[string]metric, scale float64) {
	for n, v := range m {
		if v.Unit == "ms" || v.Unit == "s" {
			v.Value *= scale
			m[n] = v
		}
	}
}

// settle collects the garbage earlier phases left, so that each timed phase,
// set-up and reopen starts from the same heap state instead of paying for
// its predecessor's garbage.
func settle() { runtime.GC() }

// --- Go runtime counters ---

type runtimeSnap struct {
	alloc, gcCPU, totalCPU float64
}

func (s runtimeSnap) add(d runtimeSnap) runtimeSnap {
	return runtimeSnap{s.alloc + d.alloc, s.gcCPU + d.gcCPU, s.totalCPU + d.totalCPU}
}

func (s runtimeSnap) sub(d runtimeSnap) runtimeSnap {
	return runtimeSnap{s.alloc - d.alloc, s.gcCPU - d.gcCPU, s.totalCPU - d.totalCPU}
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSnap{alloc: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// reportRuntime stores Go allocation per operation and the share of CPU
// spent in the garbage collector between two snapshots.
func (o *outcome) reportRuntime(before, after runtimeSnap, ops int64) {
	if ops < 1 {
		ops = 1
	}
	o.perLayer["go.alloc_bytes_per_op"] = metric{(after.alloc - before.alloc) / float64(ops), "bytes"}
	frac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		frac = (after.gcCPU - before.gcCPU) / cpu
	}
	o.perLayer["go.gc_cpu_fraction"] = metric{frac, "ratio"}
}

// cpuTicks is the machine-wide line of /proc/stat: total and steal ticks.
// The share of CPU time the hypervisor withheld during a run ("steal") goes
// into the fingerprint, because it moves every wall-clock figure.
type cpuTicks struct{ total, steal float64 }

func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of CPU time stolen since before, in percent.
func (t cpuTicks) stealSince(before cpuTicks) float64 {
	return 100 * ratio(t.steal-before.steal, t.total-before.total)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineOptions are the options every workbook is opened with: the defaults,
// except that the worker count is fixed at nproc, which is its default when
// Go code may use every CPU. GOMAXPROCS 1 would otherwise make it 1.
func engineOptions() core.Options { return core.Options{Workers: runtime.NumCPU()} }
