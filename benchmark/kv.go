package main

// kv-storm: the tolerant serving path (§7) under closed-loop load. One of
// five replicas runs on a core with a deterministic stuck bit, so reads
// exercise the whole ladder: checksum failure, retry on another replica,
// suspect signal. No screening runs here.

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kvdb"
	"repro/internal/xrand"
)

// kvParams sizes the workload; the smoke tests shrink it.
type kvParams struct {
	replicas, rows, setupReps int
}

var kvFull = kvParams{replicas: 5, rows: 20_000, setupReps: 5}

// The operation mix, in percent: Get, then QueryByValue, the rest Put.
const (
	kvGetPct   = 90
	kvQueryPct = 2
	// kvValueBytes is the record size: key, version, then 0xFF padding
	// that carries the stuck bit, so the defective core corrupts every
	// record it copies.
	kvValueBytes = 64
)

func kvKey(i int) string { return "row" + strconv.Itoa(i) }

func kvValue(key string, version int) []byte {
	v := make([]byte, 0, kvValueBytes)
	v = append(v, key...)
	v = append(v, '=')
	v = strconv.AppendInt(v, int64(version), 10)
	for len(v) < kvValueBytes {
		v = append(v, 0xFF)
	}
	return v
}

// kvCommitted reports whether v can be a committed value of key: right
// size, key prefix, a version, intact padding. Any value a client wrote
// passes; corrupt bytes from the defective replica do not.
func kvCommitted(key string, v []byte) bool {
	if len(v) != kvValueBytes || !bytes.HasPrefix(v, []byte(key+"=")) {
		return false
	}
	rest := v[len(key)+1:]
	i := bytes.IndexByte(rest, 0xFF)
	if i <= 0 {
		return false
	}
	if _, err := strconv.Atoi(string(rest[:i])); err != nil {
		return false
	}
	return bytes.Count(rest[i:], []byte{0xFF}) == len(rest)-i
}

// kvStore is one built store and the hooks the benchmark reads.
type kvStore struct {
	db    *kvdb.TolerantDB
	cores []*fault.Core
	// signals counts sink deliveries; sinkNs, in traced sub-windows, the
	// time spent inside the sink.
	signals, sinkNs atomic.Int64
	tracing         atomic.Bool
}

// sink is the store's suspect-signal sink, owned by the benchmark.
func (s *kvStore) sink(detect.Signal) error {
	if s.tracing.Load() {
		defer func(t time.Time) { s.sinkNs.Add(int64(time.Since(t))) }(time.Now())
	}
	s.signals.Add(1)
	return nil
}

// buildKV assembles the replicated store and preloads every row through
// the tolerant layer, so the defective replica's copies are corrupt
// before timing starts.
func buildKV(p kvParams) (*kvStore, error) {
	stuck := fault.Defect{
		ID: "stuck-bit", Unit: fault.UnitVec, Deterministic: true,
		Kind: fault.CorruptStuckBit, BitPos: 3, StuckVal: 0,
	}
	s := &kvStore{}
	replicas := make([]*kvdb.Replica, p.replicas)
	for i := range replicas {
		var defects []fault.Defect
		if i == 0 {
			defects = append(defects, stuck)
		}
		core := fault.NewCore(fmt.Sprintf("kv/%d", i), xrand.New(uint64(1000+i)), defects...)
		s.cores = append(s.cores, core)
		replicas[i] = kvdb.NewReplica(fmt.Sprintf("r%d", i), engine.New(core)).Locate("kv", i)
	}
	db, err := kvdb.New(replicas...)
	if err != nil {
		return nil, err
	}
	s.db = kvdb.NewTolerant(db, kvdb.TolerantConfig{Sink: s.sink})
	for i := 0; i < p.rows; i++ {
		s.db.Put(kvKey(i), kvValue(kvKey(i), 0))
	}
	return s, nil
}

// kvWorker is one closed-loop client. Latencies are in µs.
type kvWorker struct {
	rng                 *xrand.RNG
	version             int
	get, query, put     latencies
	ops, bad            int64
	attempts, readsSeen int64
	badNote             string
	log                 *spanLog // nil when untraced
	id                  int64
}

// kvReadSpan maps a read's ReadInfo.Result onto the two span names the
// per-layer figures split reads by.
func kvReadSpan(result string) string {
	if result == "ok" {
		return "kvdb.TolerantDB.GetTraced/ok"
	}
	return "kvdb.TolerantDB.GetTraced/mitigated"
}

// loop issues operations back to back from start until deadline. A
// traced worker records spans in the traced sub-windows.
func (w *kvWorker) loop(s *kvStore, rows int, start, deadline time.Time, slice time.Duration, tr *tracer) {
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		k := int(t0.Sub(start) / slice)
		key := kvKey(w.rng.Intn(rows))
		op := w.rng.Intn(100)
		w.id++
		log := w.log
		if !traced(k) {
			log = nil
		}
		var s0 int64
		if log != nil {
			s0 = tr.now()
		}
		switch {
		case op < kvGetPct:
			v, info, err := s.db.GetTraced(key)
			lat := time.Since(t0)
			if log != nil {
				log.record(kvReadSpan(info.Result), 0, w.id, s0, tr.now())
				w.attempts += int64(info.Attempts)
				w.readsSeen++
			}
			w.get.add(float64(lat)/1e3, k)
			if err != nil || !kvCommitted(key, v) {
				w.bad++
				if w.badNote == "" {
					w.badNote = fmt.Sprintf("Get(%s) = %q, %v", key, v, err)
				}
			}
		case op < kvGetPct+kvQueryPct:
			s.db.QueryByValue(kvValue(key, 0))
			lat := time.Since(t0)
			if log != nil {
				log.record("kvdb.TolerantDB.QueryByValue", 0, w.id, s0, tr.now())
			}
			w.query.add(float64(lat)/1e3, k)
		default:
			w.version++
			s.db.Put(key, kvValue(key, w.version))
			lat := time.Since(t0)
			if log != nil {
				log.record("kvdb.TolerantDB.Put", 0, w.id, s0, tr.now())
			}
			w.put.add(float64(lat)/1e3, k)
		}
		w.ops++
	}
}

// kvWindow runs the workers for d and returns once all have stopped.
// With onSlice set, a goroutine calls it at each sub-window boundary (see
// alternate) and the window waits for it too.
func kvWindow(s *kvStore, p kvParams, ws []*kvWorker, d time.Duration, tr *tracer, onSlice func(on bool)) {
	start := time.Now()
	deadline := start.Add(d)
	slice := sliceOf(d)
	var wg sync.WaitGroup
	if onSlice != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			alternate(start, deadline, slice, onSlice)
		}()
	}
	for _, w := range ws {
		wg.Add(1)
		go func(w *kvWorker) {
			defer wg.Done()
			w.loop(s, p.rows, start, deadline, slice, tr)
		}(w)
	}
	wg.Wait()
}

// newKVWorkers makes the run's clients, each with an operation stream of
// its own.
func newKVWorkers(rc runConfig) []*kvWorker {
	ws := make([]*kvWorker, rc.workers)
	for i := range ws {
		ws[i] = &kvWorker{
			rng: xrand.New(rc.seed).Fork(uint64(i + 1)),
			id:  int64(i) << 40,
		}
	}
	return ws
}

// kvSummary folds the workers' counts together.
type kvSummary struct {
	ops, bad        int64
	gets, puts, all []*latencies // µs
	ownBytes        int
	attempts, reads int64
	badNote         string
}

func summarizeKV(ws []*kvWorker) kvSummary {
	var s kvSummary
	for _, w := range ws {
		s.ops += w.ops
		s.bad += w.bad
		s.attempts += w.attempts
		s.reads += w.readsSeen
		s.gets = append(s.gets, &w.get)
		s.puts = append(s.puts, &w.put)
		s.all = append(s.all, &w.get, &w.query, &w.put)
		s.ownBytes += w.get.bytes() + w.query.bytes() + w.put.bytes()
		if s.badNote == "" {
			s.badNote = w.badNote
		}
	}
	return s
}

func runKV(rc runConfig, p kvParams) (*outcome, error) {
	out := newOutcome()
	out.detail["rows"] = p.rows
	out.detail["replicas"] = p.replicas
	var (
		s      *kvStore
		setups []float64
		err    error
	)
	for i := 0; i < p.setupReps; i++ {
		s = nil
		runtime.GC() // each build starts from the same heap
		t0 := time.Now()
		if s, err = buildKV(p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if rc.trace {
		return out, kvTraced(rc, p, s, out)
	}
	ws := newKVWorkers(rc)
	start, cpu0 := time.Now(), cpuTime()
	kvWindow(s, p, ws, rc.window, nil, nil)
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	sum := summarizeKV(ws)
	out.attempted += sum.ops
	out.failed += sum.bad
	if sum.bad > 0 {
		out.fail("kv: %d reads returned a value never committed (first: %s)", sum.bad, sum.badNote)
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["heap_mb"] = liveHeapMB(sum.ownBytes)
	out.e2e["ops_per_s"] = float64(sum.ops) / elapsed.Seconds()
	out.e2e["cpu_ms_per_op"] = ms(cpu) / float64(sum.ops)
	out.e2e["p50_ms"] = windowedQuantile(0.50, nil, sum.all...) / 1e3
	gets, puts := pooled(sum.gets...), pooled(sum.puts...)
	out.detail["kv.ops_per_s"] = out.e2e["ops_per_s"]
	out.detail["kv.read_p50_us"] = percentile(gets, 0.50)
	out.detail["kv.read_p99_us"] = percentile(gets, 0.99)
	out.detail["kv.read_samples"] = len(gets)
	out.detail["kv.write_p99_us"] = percentile(puts, 0.99)
	out.detail["kv.write_samples"] = len(puts)
	out.detail["setup_reps_s"] = setups
	s.db.Close()
	return out, nil
}

// kvCounts are the cumulative counts the per-layer figures take deltas
// of.
type kvCounts struct {
	stats   kvdb.TolerantStats
	signals int64
}

// kvTraced measures a window whose sub-windows alternate untraced and
// traced. In a traced one, every store call is a span, the sink is timed,
// the fault hook counts and mutex profiling is on; the per-layer counts
// are totals over the traced sub-windows.
func kvTraced(rc runConfig, p kvParams, s *kvStore, out *outcome) error {
	var corruptions atomic.Int64
	for _, c := range s.cores {
		c.OnCorrupt = func(fault.CorruptionEvent) {
			if s.tracing.Load() {
				corruptions.Add(1)
			}
		}
	}
	tr := newTracer()
	ws := newKVWorkers(rc)
	for _, w := range ws {
		w.log = tr.log()
	}
	var (
		total, last kvCounts
		stopProfile = func() {}
	)
	onSlice := func(on bool) {
		now := kvCounts{stats: s.db.Stats(), signals: s.signals.Load()}
		if s.tracing.Load() {
			total.stats.Retries += now.stats.Retries - last.stats.Retries
			total.stats.Repairs += now.stats.Repairs - last.stats.Repairs
			total.stats.DegradedServes += now.stats.DegradedServes - last.stats.DegradedServes
			total.signals += now.signals - last.signals
			stopProfile()
		}
		last = now
		s.tracing.Store(on)
		if on {
			stopProfile = startMutexProfile()
		}
	}
	kvWindow(s, p, ws, rc.window, tr, onSlice)
	sum := summarizeKV(ws)
	out.attempted += sum.ops
	out.failed += sum.bad
	if sum.bad > 0 {
		out.fail("kv: %d reads returned a value never committed (first: %s)", sum.bad, sum.badNote)
	}
	lockMs, err := lockWaitMs("repro/internal/kvdb")
	if err != nil {
		return err
	}

	pct := func(name string, q float64) float64 {
		return percentile(sortedCopy(tr.durations(name)), q)
	}
	out.layer["kvdb.get_ok_p50_us"] = pct(kvReadSpan("ok"), 0.50)
	out.layer["kvdb.get_ok_p99_us"] = pct(kvReadSpan("ok"), 0.99)
	out.layer["kvdb.get_mitigated_p50_us"] = pct(kvReadSpan(""), 0.50)
	out.layer["kvdb.get_mitigated_p99_us"] = pct(kvReadSpan(""), 0.99)
	out.layer["kvdb.query_p50_us"] = pct("kvdb.TolerantDB.QueryByValue", 0.50)
	out.layer["kvdb.query_p99_us"] = pct("kvdb.TolerantDB.QueryByValue", 0.99)
	out.layer["kvdb.attempts_per_read"] = ratio(float64(sum.attempts), float64(sum.reads))
	out.layer["kvdb.useful_attempt_ratio"] = ratio(float64(sum.reads), float64(sum.attempts))
	out.layer["kvdb.retries"] = float64(total.stats.Retries)
	out.layer["kvdb.repairs"] = float64(total.stats.Repairs)
	out.layer["kvdb.degraded"] = float64(total.stats.DegradedServes)
	out.layer["kvdb.signals"] = float64(total.signals)
	out.layer["kvdb.sink_us"] = float64(s.sinkNs.Load()) / 1e3
	out.layer["kvdb.lock_wait_ms"] = lockMs
	out.layer["fault.corruptions"] = float64(corruptions.Load())
	out.layer["trace_overhead_pct"] = tracedOverheadPct(sum.all...)
	s.db.Close()
	return finishTrace(tr, rc, out)
}
