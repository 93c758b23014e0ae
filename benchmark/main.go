// Command perfbench is the repository benchmark. It drives one of three
// workloads against the real library code and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time, live
// heap, throughput, median latency, CPU per operation); with --trace 1
// they are the per-layer ones, measured in a separate traced run, plus
// the tracing overhead. Every run also prints an "env" line (host and load
// shape) and a "detail" line with the workload's own named figures.
//
// The workloads, and why each was chosen, are described in README.md.
// Run it through run.sh, which builds it from source inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

const (
	// defaultSeed is the seed the README's traced numbers were taken at.
	defaultSeed = 7
	// maxWorkers caps client goroutines (and connections): load comes
	// from one process on a small host.
	maxWorkers = 2
	// maxSeconds is the longest measured window a run accepts; the fleet
	// references in fleet_golden.json cover a window this long.
	maxSeconds = 60
)

// metric is one measurement with its unit.
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

// endToEnd lists the metrics every untraced run reports, on every
// workload. What an "operation" is depends on the workload: a simulated
// day (fleet-100k), a store call (kv-storm), an HTTP request (ctl-flood).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer lists the metrics every traced run reports. A layer the
// workload does not call reads 0. Counts are totals over the traced days
// or sub-windows unless the unit says per day.
var perLayer = []struct{ name, unit string }{
	{"trace_overhead_pct", "%"},
	{"fleet.step_ms", "ms/day"},
	{"fleet.plan_ms", "ms/day"},
	{"fleet.sites_ms", "ms/day"},
	{"fleet.merge_ms", "ms/day"},
	{"fleet.noise_ms", "ms/day"},
	{"fleet.triage_ms", "ms/day"},
	{"fleet.suspects_ms", "ms/day"},
	{"fleet.repairs_ms", "ms/day"},
	{"fleet.active_sites", "count/day"},
	{"fleet.signals", "count/day"},
	{"fleet.allocs_per_day", "count/day"},
	{"fleet.alloc_mb_per_day", "MB/day"},
	{"screen.online_ops", "count/day"},
	{"screen.confession_ops", "count/day"},
	{"screen.sessions", "count/day"},
	{"screen.useful_ratio", "ratio"},
	{"screen.ops_per_ms", "1/ms"},
	{"quarantine.new", "count"},
	{"fault.corruptions", "count"},
	{"kvdb.get_ok_p50_us", "us"},
	{"kvdb.get_ok_p99_us", "us"},
	{"kvdb.get_mitigated_p50_us", "us"},
	{"kvdb.get_mitigated_p99_us", "us"},
	{"kvdb.query_p50_us", "us"},
	{"kvdb.query_p99_us", "us"},
	{"kvdb.attempts_per_read", "ratio"},
	{"kvdb.useful_attempt_ratio", "ratio"},
	{"kvdb.retries", "count"},
	{"kvdb.repairs", "count"},
	{"kvdb.degraded", "count"},
	{"kvdb.signals", "count"},
	{"kvdb.sink_us", "us"},
	{"kvdb.lock_wait_ms", "ms"},
	{"report.reports_handler_p50_ms", "ms"},
	{"report.reports_handler_p99_ms", "ms"},
	{"report.verbs_handler_p50_ms", "ms"},
	{"report.verbs_handler_p90_ms", "ms"},
	{"report.queue_wait_p99_ms", "ms"},
	{"report.queue_depth_max", "count"},
	{"report.shed", "count"},
	{"lifecycle.wal_write_p50_us", "us"},
	{"lifecycle.wal_write_p99_us", "us"},
	{"lifecycle.fsync_p50_us", "us"},
	{"lifecycle.fsync_p99_us", "us"},
	{"lifecycle.fsyncs_per_transition", "ratio"},
	{"lifecycle.wal_bytes_per_transition", "B"},
	{"lifecycle.replay_s", "s"},
	{"lifecycle.lock_wait_ms", "ms"},
	{"ctl.gen_late_ms", "ms"},
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    uint64
	window  time.Duration // the measured window
	trace   bool
	workers int
	// scratch is a private directory removed when the run ends; spans is
	// where a traced run writes its span log.
	scratch, spans string
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int64
	// gate lists failed correctness checks; any entry fails the run.
	gate []string
	// e2e and layer hold the end-to-end and per-layer values by name.
	e2e, layer map[string]float64
	// detail carries the workload's own named figures and sample counts.
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

// fail records a failed correctness gate.
func (o *outcome) fail(format string, args ...any) {
	o.gate = append(o.gate, fmt.Sprintf(format, args...))
}

// workloads maps --workload names to their drivers at full size.
var workloads = map[string]func(runConfig) (*outcome, error){
	"fleet-100k": func(rc runConfig) (*outcome, error) { return runFleet(rc, fleetFull) },
	"kv-storm":   func(rc runConfig) (*outcome, error) { return runKV(rc, kvFull) },
	"ctl-flood":  func(rc runConfig) (*outcome, error) { return runCtl(rc, ctlFull) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fleet-100k, kv-storm or ctl-flood")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced window")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files and span logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	case *seconds <= 0 || *seconds > maxSeconds:
		fmt.Fprintf(stderr, "perfbench: --seconds must be in (0, %d]\n", maxSeconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	rc := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workers: min(maxWorkers, runtime.NumCPU()),
		scratch: scratch,
		spans:   filepath.Join(*workdir, "spans", fmt.Sprintf("%s-seed%d.tsv", *name, *seed)),
	}
	env := map[string]any{
		"workload": *name, "seed": rc.seed, "seconds": *seconds, "trace": *trace,
		"workers": rc.workers, "numcpu": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	printLine(stdout, "env ", env)

	out, err := wl(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printLine(stdout, "detail ", out.detail)
	for _, g := range out.gate {
		fmt.Fprintf(stderr, "perfbench: correctness gate failed: %s\n", g)
	}
	res := out.result(rc.trace)
	printLine(stdout, "", res)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// result is the outcome as the last output line reports it: the
// end-to-end metrics, or with trace the per-layer ones.
func (o *outcome) result(trace bool) result {
	res := result{
		Correct:   len(o.gate) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	table, values := endToEnd, o.e2e
	if trace {
		table, values = perLayer, o.layer
	}
	for _, m := range table {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res
}

func printLine(w io.Writer, prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "%s%s\n", prefix, b)
}

// subWindow is the slice of a run over which kv-storm and ctl-flood take
// each latency quantile; they report the median over sub-windows, so that
// one host-level stall moves one sub-window rather than the whole figure.
const subWindow = time.Second

// latencies holds one client's samples in issue order, and the index at
// which each sub-window's samples start.
type latencies struct {
	v     []float64
	start []int // v[start[k]:start[k+1]] fall in sub-window k
}

// add records sample x, taken in sub-window k (k never decreases).
func (l *latencies) add(x float64, k int) {
	for len(l.start) <= k {
		l.start = append(l.start, len(l.v))
	}
	l.v = append(l.v, x)
}

func (l *latencies) window(k int) []float64 {
	if k >= len(l.start) {
		return nil
	}
	end := len(l.v)
	if k+1 < len(l.start) {
		end = l.start[k+1]
	}
	return l.v[l.start[k]:end]
}

// bytes is the memory the samples hold.
func (l *latencies) bytes() int { return 8*cap(l.v) + 8*cap(l.start) }

// sliceOf is the sub-window length for a measured window: subWindow, or
// a quarter of a window too short to hold four.
func sliceOf(window time.Duration) time.Duration { return min(subWindow, window/4) }

// traced says whether sub-window k of a traced run records: its window
// alternates untraced and traced sub-windows, so that host drift and
// warm-up fall on both sides of trace_overhead_pct alike.
func traced(k int) bool { return k%2 == 1 }

// alternate drives a traced run's sub-windows: from start it calls
// set(true) at the start of each traced sub-window and set(false) at the
// start of each untraced one, and set(false) once more at end.
func alternate(start, end time.Time, slice time.Duration, set func(on bool)) {
	for k := 0; ; k++ {
		at := start.Add(time.Duration(k) * slice)
		if !at.Before(end) {
			sleepUntil(end)
			set(false)
			return
		}
		sleepUntil(at)
		set(traced(k))
	}
}

// windowedQuantile is the median, over the sub-windows k for which keep(k)
// holds (all of them when keep is nil), of the q-quantile of the samples
// the sets hold in each.
func windowedQuantile(q float64, keep func(k int) bool, sets ...*latencies) float64 {
	n := 0
	for _, l := range sets {
		n = max(n, len(l.start))
	}
	var per, buf []float64
	for k := 0; k < n; k++ {
		if keep != nil && !keep(k) {
			continue
		}
		buf = buf[:0]
		for _, l := range sets {
			buf = append(buf, l.window(k)...)
		}
		if len(buf) > 0 {
			sort.Float64s(buf)
			per = append(per, percentile(buf, q))
		}
	}
	return median(per)
}

// tracedOverheadPct compares the median latency of a traced run's traced
// sub-windows with that of its untraced ones.
func tracedOverheadPct(sets ...*latencies) float64 {
	untraced := func(k int) bool { return !traced(k) }
	return overheadPct(windowedQuantile(0.5, untraced, sets...), windowedQuantile(0.5, traced, sets...))
}

// pooled returns every sample of the sets, sorted.
func pooled(sets ...*latencies) []float64 {
	var out []float64
	for _, l := range sets {
		out = append(out, l.v...)
	}
	sort.Float64s(out)
	return out
}

// percentile returns the exact nearest-rank q-quantile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// sortedCopy returns xs sorted, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s
}

// median of xs (the mean of the middle pair for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overheadPct is how much slower the traced figure reads than the
// untraced one, in percent.
func overheadPct(untraced, traced float64) float64 {
	return (ratio(traced, untraced) - 1) * 100
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB forces a collection and returns the live heap in MB, less
// own bytes that the benchmark itself holds (latency sample buffers), so
// the figure is the program's memory rather than the harness's.
func liveHeapMB(own int) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(int64(m.HeapAlloc)-int64(own)) / (1 << 20)
}
