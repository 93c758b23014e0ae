package main

// fleet-100k: the simulated day loop at 100,000 machines, the cost that
// the paper's fleet-scale screening (§6) puts on every simulated day.
//
// A population seed fixes a fleet's defects, and the day cost follows
// them: over 18 populations the mean of days 1–10 ranged 254–564 ms, and
// drawing six fresh populations per run still spread the median day over
// 20% between seeds. So every run measures the same eight reference
// populations, in an order --seed chooses, and pools their days: the
// figures move with the code and the host, not with the draw, and every
// population has a recorded reference.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// fleetParams sizes the workload; the smoke tests shrink it.
type fleetParams struct {
	machines int
	// fleets is how many fleets a run measures: the reference populations
	// seeded 1..fleets.
	fleets int
	// daysPerSecond fixes the window: round(seconds × daysPerSecond)
	// simulated days in all, split evenly over the fleets, after each
	// fleet's warm-up day. A fixed day count keeps the simulated work, and
	// so the fingerprints, identical across commits.
	daysPerSecond float64
}

var fleetFull = fleetParams{machines: 100_000, fleets: 8, daysPerSecond: 4}

// fleetPhases are the fleet_phase_seconds labels the default config
// records, in day order.
var fleetPhases = []string{"plan", "sites", "merge", "noise", "triage", "suspects", "repairs"}

//go:embed fleet_golden.json
var fleetGoldenJSON []byte

// fleetGolden holds reference per-day fingerprints for the full-size
// populations, by population seed, recorded from the serial path.
type fleetGolden struct {
	Machines int                 `json:"machines"`
	Seeds    map[string][]string `json:"seeds"`
}

// fingerprint hashes every field of one day's telemetry.
func fingerprint(st fleet.DayStats) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", st)
	return fmt.Sprintf("%016x", h.Sum64())
}

// fleetConfig is the default (paper-calibrated) config at the workload's
// size for population pop.
func fleetConfig(p fleetParams, pop uint64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Machines = p.machines
	cfg.Seed = pop
	return cfg
}

// fleetPopulations returns the populations 1..p.fleets in the order a run
// at seed measures them.
func fleetPopulations(p fleetParams, seed uint64) []uint64 {
	pops := make([]uint64, p.fleets)
	for i, j := range xrand.New(seed).Perm(p.fleets) {
		pops[i] = uint64(j + 1)
	}
	return pops
}

// fleetReference returns the expected fingerprints of days 0..n-1. At the
// size the golden table records, they come from the table alone, and may
// be fewer than n if the table is short: a rerun of the same code could
// not catch a change to the simulated output. At any other size (the
// smoke tests') they come from a fresh serial (parallelism 1) run, which
// the determinism contract says the parallel one must match.
func fleetReference(cfg fleet.Config, n int) ([]string, string, error) {
	var g fleetGolden
	if err := json.Unmarshal(fleetGoldenJSON, &g); err != nil {
		return nil, "", fmt.Errorf("fleet_golden.json: %w", err)
	}
	if g.Machines == cfg.Machines {
		want := g.Seeds[strconv.FormatUint(cfg.Seed, 10)]
		return want[:min(n, len(want))], "golden", nil
	}
	out, err := serialFingerprints(cfg, n)
	return out, "serial", err
}

// serialFingerprints runs days 0..n-1 on the serial reference path.
func serialFingerprints(cfg fleet.Config, n int) ([]string, error) {
	r, err := fleet.NewRunner(cfg, fleet.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fingerprint(r.Step())
	}
	return out, nil
}

// checkFingerprints counts the days whose telemetry differs from want.
func checkFingerprints(got, want []string) int {
	bad := 0
	for i, g := range got {
		if i >= len(want) || g != want[i] {
			bad++
		}
	}
	return bad
}

// fleetDays is how many days each fleet steps after its warm-up day.
func fleetDays(p fleetParams, window time.Duration) int {
	return max(1, int(math.Round(window.Seconds()*p.daysPerSecond))/p.fleets)
}

// fleetPass is one fleet built, warmed up and stepped.
type fleetPass struct {
	setup  float64 // build + warm-up day, s
	dayMs  []float64
	stepS  float64 // time in Step over the window
	cpuS   float64 // process CPU time over the window
	prints []string
	heapMB float64
	// Traced passes only.
	allocs, bytes            uint64
	active, signals, newQuar int
	corruptions              int64
	counters                 map[string]float64 // registry deltas
}

// runPass builds a fleet, steps its warm-up day and then days more. With
// reg set, the fleet records into it, each Step is a span, and
// allocations are counted around it.
func runPass(cfg fleet.Config, days int, reg *obs.Registry, tr *tracer) (*fleetPass, error) {
	opts := []fleet.RunnerOption{fleet.WithParallelism(runtime.GOMAXPROCS(0))}
	if reg != nil {
		opts = append(opts, fleet.WithMetrics(reg))
	}
	pass := &fleetPass{dayMs: make([]float64, days)}
	start := time.Now()
	r, err := fleet.NewRunner(cfg, opts...)
	if err != nil {
		return nil, err
	}
	pass.prints = append(pass.prints, fingerprint(r.Step()))
	pass.setup = time.Since(start).Seconds()

	var (
		corruptions atomic.Int64
		log         *spanLog
		before      map[string]float64
		m0, m1      runtime.MemStats
	)
	if reg != nil {
		for _, site := range r.Fleet().Defects() {
			site.Site.OnCorrupt = func(fault.CorruptionEvent) { corruptions.Add(1) }
		}
		log = tr.log()
		before = fleetCounters(reg)
	}
	cpu0 := cpuTime()
	for d := range pass.dayMs {
		if reg != nil {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		s0 := tr.now()
		st := r.Step()
		took := time.Since(t0)
		if reg != nil {
			log.record("fleet.Runner.Step", 0, int64(st.Day), s0, tr.now())
			runtime.ReadMemStats(&m1)
			pass.allocs += m1.Mallocs - m0.Mallocs
			pass.bytes += m1.TotalAlloc - m0.TotalAlloc
			pass.active += st.ActiveDefects
			pass.signals += st.AutoReports + st.UserReports
			pass.newQuar += st.NewQuarantines
		}
		pass.dayMs[d] = ms(took)
		pass.stepS += took.Seconds()
		pass.prints = append(pass.prints, fingerprint(st))
	}
	pass.cpuS = (cpuTime() - cpu0).Seconds()
	if reg != nil {
		pass.corruptions = corruptions.Load()
		pass.counters = fleetCounters(reg)
		for k, v := range before {
			pass.counters[k] -= v
		}
	} else {
		pass.heapMB = liveHeapMB(0)
	}
	runtime.KeepAlive(r)
	return pass, nil
}

// fleetGate compares a pass's day fingerprints with the reference and
// counts every simulated day, warm-up included, as one operation.
func fleetGate(cfg fleet.Config, prints []string, out *outcome) error {
	runtime.GC()
	want, source, err := fleetReference(cfg, len(prints))
	if err != nil {
		return err
	}
	out.detail["reference"] = source
	bad := checkFingerprints(prints, want)
	out.attempted += int64(len(prints))
	out.failed += int64(bad)
	switch {
	case len(want) < len(prints):
		out.fail("fleet: the %s reference holds %d of the %d days of population %d (record fleet_golden.json again)",
			source, len(want), len(prints), cfg.Seed)
	case bad > 0:
		out.fail("fleet: %d of %d days differ from the %s reference for population %d", bad, len(prints), source, cfg.Seed)
	}
	return nil
}

func runFleet(rc runConfig, p fleetParams) (*outcome, error) {
	out := newOutcome()
	pops := fleetPopulations(p, rc.seed)
	if rc.trace {
		// Each traced fleet runs twice, untraced and traced.
		pops = pops[:max(1, len(pops)/2)]
	}
	days := fleetDays(p, rc.window)
	out.detail["machines"] = p.machines
	out.detail["populations"] = pops
	out.detail["days_per_fleet"] = days
	out.detail["parallelism"] = runtime.GOMAXPROCS(0)

	var (
		setups, heaps, dayMs, traced []float64
		stepS, cpuS                  float64
		tr                           = newTracer()
		agg                          = &fleetPass{counters: map[string]float64{}}
		prints                       [][]string
	)
	for _, pop := range pops {
		cfg := fleetConfig(p, pop)
		runtime.GC()
		pass, err := runPass(cfg, days, nil, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, pass.setup)
		heaps = append(heaps, pass.heapMB)
		dayMs = append(dayMs, pass.dayMs...)
		stepS += pass.stepS
		cpuS += pass.cpuS
		prints = append(prints, pass.prints)
		if err := fleetGate(cfg, pass.prints, out); err != nil {
			return nil, err
		}
		if !rc.trace {
			continue
		}
		runtime.GC()
		if pass, err = runPass(cfg, days, obs.NewRegistry(), tr); err != nil {
			return nil, err
		}
		if err := fleetGate(cfg, pass.prints, out); err != nil {
			return nil, err
		}
		traced = append(traced, pass.dayMs...)
		agg.allocs += pass.allocs
		agg.bytes += pass.bytes
		agg.active += pass.active
		agg.signals += pass.signals
		agg.newQuar += pass.newQuar
		agg.corruptions += pass.corruptions
		for k, v := range pass.counters {
			agg.counters[k] += v
		}
	}
	if rc.trace {
		fleetLayers(agg, float64(len(traced)), tr, out)
		out.layer["trace_overhead_pct"] = overheadPct(mean(dayMs), mean(traced))
		out.detail["untraced_day_ms"] = mean(dayMs)
		out.detail["traced_day_ms"] = mean(traced)
		return out, finishTrace(tr, rc, out)
	}
	sorted := sortedCopy(dayMs)
	out.e2e["setup_s"] = median(setups)
	out.e2e["heap_mb"] = median(heaps)
	out.e2e["ops_per_s"] = float64(len(dayMs)) / stepS
	out.e2e["cpu_ms_per_op"] = 1e3 * cpuS / float64(len(dayMs))
	out.e2e["p50_ms"] = percentile(sorted, 0.50)
	out.detail["fleet.day_ms"] = 1e3 * stepS / float64(len(dayMs))
	out.detail["setup_reps_s"] = setups
	out.detail["fingerprints"] = prints
	return out, nil
}

// fleetLayers turns the traced passes' totals over n days into the
// per-layer figures.
func fleetLayers(agg *fleetPass, n float64, tr *tracer, out *outcome) {
	c := agg.counters
	var phaseSum float64
	for _, ph := range fleetPhases {
		out.layer["fleet."+ph+"_ms"] = c["phase:"+ph] * 1e3 / n
		phaseSum += out.layer["fleet."+ph+"_ms"]
	}
	out.detail["phase_sum_ms"] = phaseSum
	out.layer["fleet.step_ms"] = mean(tr.durations("fleet.Runner.Step")) / 1e3
	out.layer["fleet.active_sites"] = float64(agg.active) / n
	out.layer["fleet.signals"] = float64(agg.signals) / n
	out.layer["fleet.allocs_per_day"] = float64(agg.allocs) / n
	out.layer["fleet.alloc_mb_per_day"] = float64(agg.bytes) / (1 << 20) / n
	online, confession := c["screen_online_ops_total"], c["screen_ops_total"]
	sessions := c["screen_sessions_total"]
	out.layer["screen.online_ops"] = online / n
	out.layer["screen.confession_ops"] = confession / n
	out.layer["screen.sessions"] = sessions / n
	out.layer["screen.useful_ratio"] = ratio(c["screen_sessions_detected_total"], sessions)
	screenMs := (c["phase:sites"] + c["phase:triage"] + c["phase:suspects"]) * 1e3
	out.layer["screen.ops_per_ms"] = ratio(online+confession, screenMs)
	out.layer["quarantine.new"] = float64(agg.newQuar)
	out.layer["fault.corruptions"] = float64(agg.corruptions)
}

// fleetCounters reads the registry series the per-layer figures use:
// phase time sums (as "phase:<name>", seconds) and counters.
func fleetCounters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Snapshot() {
		switch {
		case s.Name == "fleet_phase_seconds" && len(s.Labels) == 1:
			out["phase:"+s.Labels[0].Value] += s.Sum
		case s.Kind == "counter":
			out[s.Name] += s.Value
		}
	}
	return out
}
