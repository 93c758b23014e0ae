package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// Tiny sizes: each workload in well under a second of measuring.
var (
	fleetTiny = fleetParams{machines: 2_000, fleets: 2, daysPerSecond: 8}
	kvTiny    = kvParams{replicas: 3, rows: 64, setupReps: 2}
	ctlTiny   = ctlParams{
		records: 2_000, machines: 200, reporters: 50,
		reportRate: 200, verbRate: 100, batch: 4, setupReps: 2,
	}
)

func tinyConfig(t *testing.T, trace bool) runConfig {
	dir := t.TempDir()
	return runConfig{
		seed: defaultSeed, window: 500 * time.Millisecond, trace: trace, workers: maxWorkers,
		scratch: dir, spans: filepath.Join(dir, "spans.tsv"),
	}
}

// TestWorkloadsReportEveryMetric runs each workload small, untraced and
// traced, and checks the result line carries every metric, measured.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	tiny := map[string]func(runConfig) (*outcome, error){
		"fleet-100k": func(rc runConfig) (*outcome, error) { return runFleet(rc, fleetTiny) },
		"kv-storm":   func(rc runConfig) (*outcome, error) { return runKV(rc, kvTiny) },
		"ctl-flood":  func(rc runConfig) (*outcome, error) { return runCtl(rc, ctlTiny) },
	}
	if len(tiny) != len(workloads) {
		t.Fatalf("tiny sizes cover %d workloads, the benchmark has %d", len(tiny), len(workloads))
	}
	for name, run := range tiny {
		for _, trace := range []bool{false, true} {
			rc := tinyConfig(t, trace)
			out, err := run(rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := out.result(trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d gate=%v",
					name, trace, res.Correct, res.Attempted, res.Failed, out.gate)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			for _, m := range table {
				v, ok := res.Metrics[m.name]
				switch {
				case !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, m.name, v)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(rc.spans); err != nil {
					t.Errorf("%s: span log not written: %v", name, err)
				}
			}
		}
	}
}

// TestFleetGateTripsOnWrongFingerprint feeds the fleet gate one day whose
// telemetry differs from the reference.
func TestFleetGateTripsOnWrongFingerprint(t *testing.T) {
	cfg := fleetConfig(fleetTiny, 1)
	pass, err := runPass(cfg, 3, nil, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	good := newOutcome()
	if err := fleetGate(cfg, pass.prints, good); err != nil {
		t.Fatal(err)
	}
	if good.failed != 0 || len(good.gate) != 0 {
		t.Fatalf("honest run failed the gate: %v", good.gate)
	}
	bad := newOutcome()
	tampered := append([]string(nil), pass.prints...)
	tampered[2] = "0000000000000000"
	if err := fleetGate(cfg, tampered, bad); err != nil {
		t.Fatal(err)
	}
	if bad.failed != 1 || len(bad.gate) != 1 {
		t.Fatalf("wrong fingerprint: failed=%d gate=%v, want one failed day", bad.failed, bad.gate)
	}
}

// TestFleetGateNeedsGoldenAtFullSize: at the size fleet_golden.json
// records, a population it does not hold fails the gate rather than
// falling back to a rerun of the code under test.
func TestFleetGateNeedsGoldenAtFullSize(t *testing.T) {
	cfg := fleetConfig(fleetFull, uint64(fleetFull.fleets+1))
	out := newOutcome()
	if err := fleetGate(cfg, []string{"0000000000000000", "0000000000000000"}, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 2 || len(out.gate) != 1 || out.detail["reference"] != "golden" {
		t.Fatalf("population without a reference: failed=%d gate=%v reference=%v, want two failed days",
			out.failed, out.gate, out.detail["reference"])
	}
}

// TestKVGateTripsOnUncommittedValue checks the read check accepts every
// value a client writes and refuses bytes no client wrote.
func TestKVGateTripsOnUncommittedValue(t *testing.T) {
	key := kvKey(42)
	for _, version := range []int{0, 7, 123456} {
		if v := kvValue(key, version); !kvCommitted(key, v) {
			t.Errorf("committed value %q refused", v)
		}
	}
	stuck := kvValue(key, 3)
	stuck[len(stuck)-1] &^= 1 << 3 // the stuck-at-0 bit the defective replica applies
	never := map[string][]byte{
		"stuck bit":   stuck,
		"other key":   kvValue(kvKey(43), 3),
		"short":       kvValue(key, 3)[:kvValueBytes-1],
		"no version":  append([]byte(key+"="), bytes.Repeat([]byte{0xFF}, kvValueBytes-len(key)-1)...),
		"bad version": append([]byte(key+"=x"), bytes.Repeat([]byte{0xFF}, kvValueBytes-len(key)-2)...),
	}
	for name, v := range never {
		if kvCommitted(key, v) {
			t.Errorf("%s: never-committed value %q accepted", name, v)
		}
	}
}

// TestCtlGateTripsOnCutWAL acks verbs through the daemon, then cuts the
// log before the last acked record: the check must notice.
func TestCtlGateTripsOnCutWAL(t *testing.T) {
	lg, err := writeLedger(filepath.Join(t.TempDir(), "ledger.wal"), ctlTiny, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	load := newCtlLoad(ctlTiny, lg, defaultSeed, time.Second, nil)
	if _, _, err := load.start(1); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := load.verb(i, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.rig.close(); err != nil {
		t.Fatal(err)
	}
	if bad, errs := checkWAL(lg, load.verbsDone); bad != 0 {
		t.Fatalf("intact WAL failed the check: %v", errs)
	}

	data, err := os.ReadFile(lg.path)
	if err != nil {
		t.Fatal(err)
	}
	lastRecord := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if err := os.WriteFile(lg.path, data[:lastRecord], 0o644); err != nil {
		t.Fatal(err)
	}
	bad, errs := checkWAL(lg, load.verbsDone)
	if bad == 0 {
		t.Fatal("WAL cut before an acked record passed the check")
	}
	t.Logf("cut WAL: %d acked verbs not durable: %v", bad, errs)
}

func TestParseLockWait(t *testing.T) {
	profile := `--- mutex:
cycles/second=1000000000
sampling period=1
2000000 3 @ 0x1 0x2
#	0x1	sync.(*Mutex).Unlock+0x1	/go/src/sync/mutex.go:1
#	0x2	repro/internal/kvdb.(*TolerantDB).Put+0x2	/repo/internal/kvdb/tolerant.go:2

5000000 1 @ 0x3
#	0x3	repro/internal/lifecycle.(*Manager).transition+0x3	/repo/internal/lifecycle/lifecycle.go:3
`
	for pkg, want := range map[string]float64{
		"repro/internal/kvdb": 2, "repro/internal/lifecycle": 5, "repro/internal/report": 0,
	} {
		got, err := parseLockWait(profile, pkg+".")
		if err != nil || got != want {
			t.Errorf("%s: %v ms, %v; want %v ms", pkg, got, err, want)
		}
	}
}

// TestWindowedQuantile: a stall confined to one sub-window moves that
// window's quantile, not the reported one.
func TestWindowedQuantile(t *testing.T) {
	var a, b latencies
	for k := 0; k < 3; k++ {
		for i := 1; i <= 10; i++ {
			a.add(float64(i), k)
		}
	}
	for i := 0; i < 5; i++ {
		b.add(1000, 1)
	}
	if got := percentile(pooled(&a, &b), 0.9); got != 1000 {
		t.Errorf("pooled p90 = %v, want 1000", got)
	}
	if got := windowedQuantile(0.9, nil, &a, &b); got != 9 {
		t.Errorf("windowed p90 = %v, want 9", got)
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json declares exactly the
// workloads and metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bj struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []named, table []struct{ name, unit string }) {
		if len(got) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program reports %d", kind, len(got), len(table))
			return
		}
		for i, m := range table {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
