package main

// fleetsim kvbench: the serving-path load generator behind BENCH_kvdb.json.
// It drives concurrent Get/Put/QueryByValue traffic at a TolerantDB whose
// replica set includes cores with injected deterministic defects, and runs
// the same workload twice — once against a single-mutex baseline built
// here (singleLockDB) and once against the sharded store — so the file
// records the sharded layer's throughput multiple and tail-latency
// behaviour under real mitigation load (checksum failures,
// different-replica retries with nonzero backoff, suspect-signal
// emission).
//
// The workload is closed-loop by default (-workers goroutines, each
// issuing its next operation as soon as the previous one returns) and
// open-loop with -qps: operations are placed on a fixed schedule and
// latency is measured from the scheduled start, so queueing delay counts
// against the store (no coordinated omission).
//
// Three things are checked beyond speed, because a fast wrong store is
// worthless:
//   - correctness: every read must return a committed value for its key
//     (checked against the value layout) — corrupt bytes must never
//     escape to the client;
//   - reader isolation: an "ok" read (one that needed no mitigation of
//     its own) must not stall behind another read's backoff sleep. Ok
//     reads at or above the backoff delay are counted as stalls; the
//     sharded store must record zero.
//   - detection coverage: every defective core must produce at least one
//     suspect signal (ground truth from fault.Core.OnCorrupt).

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kvdb"
	"repro/internal/obs"
	"repro/internal/xrand"
)

const kvBenchName = "kvdb-serving"

// KVBenchConfigResult is one measured (mode, workload) cell.
type KVBenchConfigResult struct {
	Mode      string `json:"mode"` // "single-lock" | "sharded"
	Workers   int    `json:"workers"`
	QPS       int    `json:"qps"` // 0 = closed loop
	Replicas  int    `json:"replicas"`
	Defective int    `json:"defective"`
	Rows      int    `json:"rows"`
	Ops       int    `json:"ops"` // total operations issued
	ReadPct   int    `json:"read_pct"`
	QueryPct  int    `json:"query_pct"`
	BackoffNs int64  `json:"backoff_ns"`

	ElapsedNs int64   `json:"elapsed_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`

	// Read latency quantiles by disposition, nanoseconds. "Ok" reads
	// needed no mitigation; "mitigated" reads retried, repaired, or were
	// served degraded.
	ReadOkP50Ns        int64 `json:"read_ok_p50_ns"`
	ReadOkP99Ns        int64 `json:"read_ok_p99_ns"`
	ReadOkP999Ns       int64 `json:"read_ok_p999_ns"`
	ReadMitigatedP99Ns int64 `json:"read_mitigated_p99_ns"`

	// OkReadStalls counts ok reads that took at least the configured
	// backoff — readers stalled behind someone else's mitigation.
	OkReadStalls int `json:"ok_read_stalls"`

	// Serving-layer accounting for the measured window.
	Reads            int `json:"reads"`
	Writes           int `json:"writes"`
	IndexQueries     int `json:"index_queries"`
	Retries          int `json:"retries"`
	RecoveredByRetry int `json:"recovered_by_retry"`
	Repairs          int `json:"repairs"`
	Errors           int `json:"errors"`
	ValueMismatches  int `json:"value_mismatches"`

	// Detection coverage under load: signals delivered, ground-truth
	// corruptions (fault.Core counters), and the fraction of defective
	// cores that produced at least one suspect signal.
	SignalsSent       int     `json:"signals_sent"`
	Corruptions       int64   `json:"corruptions"`
	DefectiveCores    int     `json:"defective_cores"`
	DetectedCores     int     `json:"detected_cores"`
	DetectionCoverage float64 `json:"detection_coverage"`
}

// KVBenchRun is one invocation: the single-lock/sharded pair plus the
// headline multiple.
type KVBenchRun struct {
	Label      string                `json:"label"`
	UTC        string                `json:"utc"`
	GoVersion  string                `json:"go"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Configs    []KVBenchConfigResult `json:"configs"`
	// Speedup is sharded ops/sec over single-lock ops/sec for the same
	// workload.
	Speedup float64 `json:"speedup"`
}

// KVBenchFile is the BENCH_kvdb.json schema: a named benchmark plus the
// append-only trajectory of runs, mirroring BENCH_fleetsim.json.
type KVBenchFile struct {
	Benchmark string       `json:"benchmark"`
	Units     KVBenchUnits `json:"units"`
	Runs      []KVBenchRun `json:"runs"`
}

// KVBenchUnits documents the measurement units inline.
type KVBenchUnits struct {
	OpsPerSec         string `json:"ops_per_sec"`
	ReadLatency       string `json:"read_latency"`
	OkReadStalls      string `json:"ok_read_stalls"`
	DetectionCoverage string `json:"detection_coverage"`
	Speedup           string `json:"speedup"`
}

func kvDefaultUnits() KVBenchUnits {
	return KVBenchUnits{
		OpsPerSec:         "operations completed per wall-clock second (measured window, warm-up excluded)",
		ReadLatency:       "nanoseconds; quantiles estimated from a 1µs-to-8s geometric histogram; open-loop (-qps) latency is measured from the scheduled start",
		OkReadStalls:      "reads that needed no mitigation of their own yet took >= the configured backoff (stalled behind another read's sleep)",
		DetectionCoverage: "fraction of defective cores that produced at least one suspect signal during the measured window",
		Speedup:           "sharded ops_per_sec / single-lock ops_per_sec for the identical workload",
	}
}

// kvValueBytes is the fixed record size. Values carry the key and a
// version so readers can verify any returned value is a committed write
// for the right row, then 0xFF padding so the injected stuck-at-0 bit
// corrupts every record the defective core copies.
const kvValueBytes = 64

func kvKey(i int) string { return "row" + strconv.Itoa(i) }

func kvValue(key string, version int) []byte {
	v := make([]byte, kvValueBytes)
	n := copy(v, key)
	n += copy(v[n:], "=")
	n += copy(v[n:], strconv.Itoa(version))
	n += copy(v[n:], "\xff")
	for i := n; i < kvValueBytes; i++ {
		v[i] = 0xFF
	}
	return v
}

// kvValueOK verifies a read result is a committed value for key (any
// version): right size, right key prefix, intact padding.
func kvValueOK(key string, v []byte) bool {
	if len(v) != kvValueBytes {
		return false
	}
	if !bytes.HasPrefix(v, []byte(key+"=")) {
		return false
	}
	return v[len(v)-1] == 0xFF
}

// kvSignalCount is a concurrency-safe sink counting signals per core.
type kvSignalCount struct {
	mu    sync.Mutex
	total int
	byRef map[string]int
}

func (c *kvSignalCount) sink(sig detect.Signal) error {
	c.mu.Lock()
	c.total++
	c.byRef[fmt.Sprintf("%s/%d", sig.Machine, sig.Core)]++
	c.mu.Unlock()
	return nil
}

// kvWorkload is the parameter block one measured cell runs under.
type kvWorkload struct {
	workers, qps, opsPerWorker int
	replicas, defective, rows  int
	readPct, queryPct          int
	backoff                    time.Duration
	singleLock                 bool
}

// kvBuildStore assembles a fresh replicated store for one cell: replica i
// serves from core i of a synthetic machine, and the first `defective`
// replicas get a deterministic stuck-at-0 bit in their copy path — the
// fail-silent wrong-answer core of §3, guaranteed to corrupt every record
// it stores (the 0xFF padding carries the stuck bit).
func kvBuildStore(w kvWorkload, sink kvdb.SignalSink) (*kvdb.TolerantDB, []*fault.Core, error) {
	defect := fault.Defect{
		ID: "kvbench-stuck", Unit: fault.UnitVec, Deterministic: true,
		Kind: fault.CorruptStuckBit, BitPos: 3, StuckVal: 0,
	}
	replicas := make([]*kvdb.Replica, w.replicas)
	cores := make([]*fault.Core, w.replicas)
	for i := 0; i < w.replicas; i++ {
		var defs []fault.Defect
		if i < w.defective {
			defs = append(defs, defect)
		}
		core := fault.NewCore(fmt.Sprintf("bench/%d", i), xrand.New(uint64(1000+i)), defs...)
		cores[i] = core
		replicas[i] = kvdb.NewReplica(fmt.Sprintf("r%d", i), engine.New(core)).
			Locate("bench", i)
	}
	db, err := kvdb.New(replicas...)
	if err != nil {
		return nil, nil, err
	}
	tdb := kvdb.NewTolerant(db, kvdb.TolerantConfig{
		RetryBackoff: w.backoff,
		Sink:         sink,
	})
	return tdb, cores, nil
}

// kvServer is the serving surface the workload drives.
type kvServer interface {
	GetTraced(key string) ([]byte, kvdb.ReadInfo, error)
	Put(key string, value []byte)
	QueryByValue(value []byte) []string
}

// singleLockDB is the benchmark baseline: the tolerant store with one
// mutex held across every call, reproducing the historical single-mutex
// TolerantDB. Retry backoff sleeps and synchronous signal delivery happen
// inside those calls, so the baseline serializes serving completely —
// one corrupt row backing off stalls every other client.
type singleLockDB struct {
	mu sync.Mutex
	db *kvdb.TolerantDB
}

func (s *singleLockDB) GetTraced(key string) ([]byte, kvdb.ReadInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.GetTraced(key)
}

func (s *singleLockDB) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.Put(key, value)
}

func (s *singleLockDB) QueryByValue(value []byte) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.QueryByValue(value)
}

// kvRunCell executes one measured cell: build, preload, run the worker
// pool, reconcile.
func kvRunCell(w kvWorkload) (KVBenchConfigResult, error) {
	counts := &kvSignalCount{byRef: map[string]int{}}
	tdb, cores, err := kvBuildStore(w, counts.sink)
	if err != nil {
		return KVBenchConfigResult{}, err
	}
	var srv kvServer = tdb
	if w.singleLock {
		srv = &singleLockDB{db: tdb}
	}
	// Ground-truth corruption counters: one per core, atomically bumped
	// (a core only runs under its replica's engine mutex, but the main
	// goroutine reads them after the pool joins — atomics keep the bench
	// race-clean under -race).
	corrupt := make([]int64, len(cores))
	for i, c := range cores {
		i := i
		c.OnCorrupt = func(fault.CorruptionEvent) { atomic.AddInt64(&corrupt[i], 1) }
	}

	// Preload every row (through the tolerant layer, so the defective
	// replica's copies are already corrupt when the measured window
	// opens), then discard the warm-up accounting.
	for i := 0; i < w.rows; i++ {
		srv.Put(kvKey(i), kvValue(kvKey(i), 0))
	}
	warm := tdb.Stats()
	warmSignals := func() int { counts.mu.Lock(); defer counts.mu.Unlock(); return counts.total }()
	var warmCorrupt int64
	for i := range corrupt {
		warmCorrupt += atomic.LoadInt64(&corrupt[i])
	}

	reg := obs.NewRegistry()
	latOK := reg.HistogramBuckets("kvbench_read_ok_seconds", obs.DefLatencyBuckets)
	latMit := reg.HistogramBuckets("kvbench_read_mitigated_seconds", obs.DefLatencyBuckets)
	var okStalls, mismatches, issued atomic.Int64

	var wg sync.WaitGroup
	start := time.Now()
	for wk := 0; wk < w.workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := xrand.New(uint64(7700 + wk))
			// Open-loop pacing: this worker owns every w.workers-th slot
			// of the global schedule.
			var period time.Duration
			if w.qps > 0 {
				period = time.Duration(int64(time.Second) * int64(w.workers) / int64(w.qps))
			}
			version := 1
			for i := 0; i < w.opsPerWorker; i++ {
				opStart := time.Now()
				if period > 0 {
					sched := start.Add(time.Duration(i) * period)
					if d := time.Until(sched); d > 0 {
						time.Sleep(d)
						opStart = time.Now()
					} else {
						opStart = sched // behind schedule: queueing delay counts
					}
				}
				key := kvKey(rng.Intn(w.rows))
				r := rng.Intn(100)
				switch {
				case r < w.readPct:
					v, info, err := srv.GetTraced(key)
					lat := time.Since(opStart)
					// Client-visible errors are reconciled from Stats()
					// afterwards; per-op we only vet returned bytes.
					if err == nil && !kvValueOK(key, v) {
						mismatches.Add(1)
					}
					if info.Result == "ok" {
						latOK.Observe(lat.Seconds())
						if w.backoff > 0 && lat >= w.backoff {
							okStalls.Add(1)
						}
					} else {
						latMit.Observe(lat.Seconds())
					}
				case r < w.readPct+w.queryPct:
					srv.QueryByValue(kvValue(key, 0))
				default:
					srv.Put(key, kvValue(key, version))
					version++
				}
				issued.Add(1)
			}
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	tdb.Close()

	st := tdb.Stats()
	res := KVBenchConfigResult{
		Mode:      "sharded",
		Workers:   w.workers,
		QPS:       w.qps,
		Replicas:  w.replicas,
		Defective: w.defective,
		Rows:      w.rows,
		Ops:       int(issued.Load()),
		ReadPct:   w.readPct,
		QueryPct:  w.queryPct,
		BackoffNs: w.backoff.Nanoseconds(),

		ElapsedNs: elapsed.Nanoseconds(),
		OpsPerSec: float64(issued.Load()) / elapsed.Seconds(),

		ReadOkP50Ns:        int64(latOK.Quantile(0.50) * 1e9),
		ReadOkP99Ns:        int64(latOK.Quantile(0.99) * 1e9),
		ReadOkP999Ns:       int64(latOK.Quantile(0.999) * 1e9),
		ReadMitigatedP99Ns: int64(latMit.Quantile(0.99) * 1e9),
		OkReadStalls:       int(okStalls.Load()),

		Reads:            st.Reads - warm.Reads,
		Writes:           st.Writes - warm.Writes,
		IndexQueries:     st.IndexQueries - warm.IndexQueries,
		Retries:          st.Retries - warm.Retries,
		RecoveredByRetry: st.RecoveredByRetry - warm.RecoveredByRetry,
		Repairs:          st.Repairs - warm.Repairs,
		Errors:           st.Errors - warm.Errors,
		ValueMismatches:  int(mismatches.Load()),
	}
	if w.singleLock {
		res.Mode = "single-lock"
	}

	counts.mu.Lock()
	res.SignalsSent = counts.total - warmSignals
	for i, c := range cores {
		if !c.Healthy() {
			res.DefectiveCores++
			if counts.byRef[fmt.Sprintf("bench/%d", i)] > 0 {
				res.DetectedCores++
			}
		}
	}
	counts.mu.Unlock()
	if res.DefectiveCores > 0 {
		res.DetectionCoverage = float64(res.DetectedCores) / float64(res.DefectiveCores)
	}
	var totalCorrupt int64
	for i := range corrupt {
		totalCorrupt += atomic.LoadInt64(&corrupt[i])
	}
	res.Corruptions = totalCorrupt - warmCorrupt
	return res, nil
}

// kvLoadBenchFile reads an existing BENCH_kvdb.json trajectory, or returns
// a fresh one. A file with the wrong benchmark name is an error, not an
// overwrite.
func kvLoadBenchFile(path string) (*KVBenchFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &KVBenchFile{Benchmark: kvBenchName, Units: kvDefaultUnits()}, nil
	}
	if err != nil {
		return nil, err
	}
	var bf KVBenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: not a valid bench file: %v", path, err)
	}
	if bf.Benchmark != kvBenchName {
		return nil, fmt.Errorf("%s: benchmark %q, want %q", path, bf.Benchmark, kvBenchName)
	}
	bf.Units = kvDefaultUnits()
	return &bf, nil
}

func cmdKVBench(args []string) int {
	fs := flag.NewFlagSet("fleetsim kvbench", flag.ContinueOnError)
	workers := fs.Int("workers", 8, "concurrent client goroutines")
	qps := fs.Int("qps", 0, "open-loop target ops/sec across all workers (0 = closed loop)")
	ops := fs.Int("ops", 3000, "operations per worker in the measured window")
	replicas := fs.Int("replicas", 5, "replicas in the store")
	defective := fs.Int("defective", 1, "replicas served by a defective core")
	rows := fs.Int("rows", 512, "distinct keys in the working set")
	readPct := fs.Int("read", 90, "percentage of operations that are reads")
	queryPct := fs.Int("query", 2, "percentage of operations that are index queries (rest are writes)")
	backoff := fs.Duration("backoff", time.Millisecond, "first-retry backoff (doubled per retry)")
	out := fs.String("out", "BENCH_kvdb.json", "trajectory file to append to ('-' prints without writing)")
	label := fs.String("label", "", "label for this run (default: utc timestamp)")
	quick := fs.Bool("quick", false, "CI smoke mode: 4 workers, 300 ops/worker, 3 replicas, 128 rows, 200µs backoff")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fleetsim kvbench [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *quick {
		*workers, *ops, *replicas, *rows = 4, 300, 3, 128
		*backoff = 200 * time.Microsecond
	}
	switch {
	case *workers <= 0:
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: -workers must be positive, got %d\n", *workers)
		return 2
	case *ops <= 0:
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: -ops must be positive, got %d\n", *ops)
		return 2
	case *replicas < 1:
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: -replicas must be >= 1, got %d\n", *replicas)
		return 2
	case *defective < 0 || *defective >= *replicas:
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: -defective must be in [0, replicas), got %d\n", *defective)
		return 2
	case *rows <= 0:
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: -rows must be positive, got %d\n", *rows)
		return 2
	case *readPct < 0 || *queryPct < 0 || *readPct+*queryPct > 100:
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: -read + -query must fit in 100%%\n")
		return 2
	case *qps < 0:
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: -qps must be >= 0, got %d\n", *qps)
		return 2
	case *backoff < 0:
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: -backoff must be >= 0\n")
		return 2
	}

	run := KVBenchRun{
		Label:      *label,
		UTC:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if run.Label == "" {
		run.Label = run.UTC
	}

	base := kvWorkload{
		workers: *workers, qps: *qps, opsPerWorker: *ops,
		replicas: *replicas, defective: *defective, rows: *rows,
		readPct: *readPct, queryPct: *queryPct, backoff: *backoff,
	}
	for _, single := range []bool{true, false} {
		w := base
		w.singleLock = single
		mode := "sharded"
		if single {
			mode = "single-lock"
		}
		fmt.Fprintf(os.Stderr, "kvbench: mode=%s workers=%d ops=%d replicas=%d defective=%d backoff=%s ... ",
			mode, w.workers, w.workers*w.opsPerWorker, w.replicas, w.defective, w.backoff)
		res, err := kvRunCell(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "\nfleetsim kvbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%.0f ops/s, ok-read p99 %s, %d stalls, coverage %.2f\n",
			res.OpsPerSec, time.Duration(res.ReadOkP99Ns), res.OkReadStalls, res.DetectionCoverage)
		if res.ValueMismatches > 0 {
			fmt.Fprintf(os.Stderr, "fleetsim kvbench: CORRECTNESS FAILURE: %d reads returned non-committed values\n",
				res.ValueMismatches)
			return 1
		}
		run.Configs = append(run.Configs, res)
	}
	if run.Configs[0].OpsPerSec > 0 {
		run.Speedup = run.Configs[1].OpsPerSec / run.Configs[0].OpsPerSec
	}
	fmt.Fprintf(os.Stderr, "kvbench: sharded/single-lock speedup %.2fx\n", run.Speedup)

	if *out == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(run)
		return 0
	}
	bf, err := kvLoadBenchFile(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: %v\n", err)
		return 1
	}
	bf.Runs = append(bf.Runs, run)
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim kvbench: %v\n", err)
		return 1
	}
	fmt.Printf("kvbench: %d config(s) appended to %s (label %q, speedup %.2fx)\n",
		len(run.Configs), *out, run.Label, run.Speedup)
	return 0
}
