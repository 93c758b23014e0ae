// Command fleetsim drives the fleet simulator through subcommands:
//
//	fleetsim run scenarios/quickstart.yaml     # run a scenario, check its assertions
//	fleetsim run -trace t.jsonl -metrics m.prom scenarios/kv-under-load.yaml
//	fleetsim validate scenarios/*.yaml         # schema-check without running
//	fleetsim experiments -experiment F1        # the paper's experiment registry
//	fleetsim experiments -experiment all -scale full
//
// A scenario file (see scenarios/ and DESIGN.md §10) declares the fleet,
// a timeline of events (defect injection, drains, operating-point
// changes, workload phases), and end-state assertions; run executes it
// and exits non-zero when an assertion fails, which is what makes the
// scenario corpus a regression suite. Every run is bit-identical at any
// -parallelism.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: fleetsim <command> [flags] [args]

Commands:
  run <scenario.yaml>      run one scenario and check its assertions
  validate <file>...       parse and schema-check scenario files
  experiments [flags]      run the paper's experiment registry
  bench [flags]            benchmark the day loop, append BENCH_fleetsim.json
  kvbench [flags]          load-test tolerant kv serving, append BENCH_kvdb.json
  chaos [-quick]           fault-inject the control plane, check its invariants
  help                     show this message

Run 'fleetsim <command> -h' for the command's flags.
`)
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch args[0] {
	case "run":
		os.Exit(cmdRun(args[1:]))
	case "validate":
		os.Exit(cmdValidate(args[1:]))
	case "experiments":
		os.Exit(cmdExperiments(args[1:]))
	case "bench":
		os.Exit(cmdBench(args[1:]))
	case "kvbench":
		os.Exit(cmdKVBench(args[1:]))
	case "chaos":
		os.Exit(cmdChaos(args[1:]))
	case "help", "-h", "--help":
		usage(os.Stdout)
		os.Exit(0)
	default:
		fmt.Fprintf(os.Stderr, "fleetsim: unknown command %q\n\n", args[0])
		usage(os.Stderr)
		os.Exit(2)
	}
}

// outputs holds the pre-opened observability sinks. Output paths are
// opened (and thus permission-checked) BEFORE the simulation runs, so an
// unwritable path fails in milliseconds, not after minutes of simulation.
type outputs struct {
	traceFile     *os.File
	metricsFile   *os.File // nil means stdout when metricsWanted
	metricsWanted bool
}

// openOutputs fails fast on unwritable -trace/-metrics paths.
func openOutputs(tracePath, metricsPath string) (*outputs, error) {
	o := &outputs{}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, fmt.Errorf("cannot write -trace output: %v", err)
		}
		o.traceFile = f
	}
	if metricsPath != "" {
		o.metricsWanted = true
		if metricsPath != "-" {
			f, err := os.Create(metricsPath)
			if err != nil {
				if o.traceFile != nil {
					o.traceFile.Close()
				}
				return nil, fmt.Errorf("cannot write -metrics output: %v", err)
			}
			o.metricsFile = f
		}
	}
	return o, nil
}

// write dumps the collected artifacts and closes the files.
func (o *outputs) write(tr *obs.Trace, reg *obs.Registry, tracePath, metricsPath string) error {
	if o.traceFile != nil {
		if err := tr.WriteJSONL(o.traceFile); err != nil {
			o.traceFile.Close()
			return err
		}
		if err := o.traceFile.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s\n", tr.Len(), tracePath)
	}
	if o.metricsWanted {
		out := os.Stdout
		if o.metricsFile != nil {
			out = o.metricsFile
			defer o.metricsFile.Close()
		}
		if err := reg.WritePrometheus(out); err != nil {
			return err
		}
		if o.metricsFile != nil {
			fmt.Printf("metrics: -> %s\n", metricsPath)
		}
	}
	return nil
}

// ---- fleetsim run ----

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("fleetsim run", flag.ContinueOnError)
	par := fs.Int("parallelism", 0, "fleet simulation workers (0 = scenario's setting, then GOMAXPROCS)")
	tracePath := fs.String("trace", "", "write the CEE lifecycle trace (JSONL) to this file")
	metricsPath := fs.String("metrics", "", "write a Prometheus text metrics snapshot to this file, '-' for stdout")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fleetsim run <scenario.yaml> [flags]")
		fs.PrintDefaults()
	}
	// Accept the scenario path before, between, or after flags: the Go
	// flag package stops at the first positional, so parse in rounds,
	// peeling off the single allowed positional each time.
	scenarioPath := ""
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		if scenarioPath != "" {
			fs.Usage()
			return 2
		}
		scenarioPath = fs.Arg(0)
		rest = fs.Args()[1:]
	}
	if *par < 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: -parallelism must be >= 0, got %d\n", *par)
		return 2
	}
	if scenarioPath == "" {
		fs.Usage()
		return 2
	}
	s, err := scenario.Load(scenarioPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	out, err := openOutputs(*tracePath, *metricsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
		return 2
	}

	opts := scenario.Options{Parallelism: *par, Metrics: obs.NewRegistry()}
	var tr *obs.Trace
	if *tracePath != "" {
		tr = obs.NewTrace()
		opts.Trace = tr
	}
	res, err := s.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
		return 1
	}
	printSummary(s, res)
	if err := out.write(tr, opts.Metrics, *tracePath, *metricsPath); err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
		return 1
	}
	if tr != nil {
		if err := traceSelfCheck(tr, res.Detection, s.Days); err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
			return 1
		}
	}
	if fails := s.Check(res); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "fleetsim: %s: %d assertion(s) failed\n", s.Name, len(fails))
		return 1
	}
	if !s.Assert.Empty() {
		fmt.Printf("assertions: all passed\n")
	}
	return 0
}

// printSummary prints the run's headline numbers.
func printSummary(s *scenario.Scenario, res *scenario.Result) {
	t := res.Totals()
	rep := res.Detection
	fmt.Printf("scenario %s: %d days, %d machines x %d cores\n",
		s.Name, s.Days, s.Fleet.Machines, s.Fleet.Cores)
	fmt.Printf("run: %d corruptions, %d auto reports, %d user reports, %d screen detections\n",
		t.Corruptions, t.AutoReports, t.UserReports, t.ScreenDetections)
	fmt.Printf("detection: %d defective cores (%d past onset), %d quarantined (TP %d / FP %d), detected fraction %.3f\n",
		rep.TotalDefective, rep.PastOnset, rep.Quarantined,
		rep.TruePositive, rep.FalsePositive, rep.DetectedFraction())
	if t.KVReads > 0 || t.KVErrors > 0 {
		fmt.Printf("kvdb: %d reads: %d retries, %d repairs, %d degraded, %d client errors\n",
			t.KVReads, t.KVRetries, t.KVRepairs, t.KVDegraded, t.KVErrors)
	}
	if t.TRGranules > 0 || t.TRFailures > 0 {
		fmt.Printf("taskrun: %d granules: %d retries, %d restores, %d migrations, %d signals, %d failed tasks\n",
			t.TRGranules, t.TRRetries, t.TRRestores, t.TRMigrations, t.TRSignals, t.TRFailures)
	}
}

// traceSelfCheck audits the trace stream: the detection report derived
// purely from the JSONL events must equal the live fleet's.
func traceSelfCheck(tr *obs.Trace, rep metrics.DetectionReport, days int) error {
	fromTrace, err := metrics.DetectionFromTrace(tr.Events(), days)
	if err != nil {
		return fmt.Errorf("trace self-check: %w", err)
	}
	if fmt.Sprintf("%+v", fromTrace) != fmt.Sprintf("%+v", rep) {
		return fmt.Errorf("trace self-check failed: trace-derived report %+v != ground truth %+v",
			fromTrace, rep)
	}
	fmt.Println("trace self-check: detection report derived from trace matches ground truth")
	return nil
}

// ---- fleetsim validate ----

func cmdValidate(args []string) int {
	fs := flag.NewFlagSet("fleetsim validate", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fleetsim validate <scenario.yaml>...")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	bad := 0
	for _, path := range fs.Args() {
		s, err := scenario.Load(path)
		if err != nil {
			bad++
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		fmt.Printf("ok\t%s\t(%s: %d days, %d events, %d assertions)\n",
			path, s.Name, s.Days, len(s.Events),
			len(s.Assert.Quantities)+len(s.Assert.QuarantinedCores)+
				len(s.Assert.NotQuarantinedCores)+len(s.Assert.Metrics))
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: %d of %d file(s) invalid\n", bad, fs.NArg())
		return 1
	}
	return 0
}

// ---- fleetsim experiments ----

func cmdExperiments(args []string) int {
	fs := flag.NewFlagSet("fleetsim experiments", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "experiment id (F1, E1..E14) or 'all'")
	scale := fs.String("scale", "small", "small | full")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var s experiments.Scale
	switch *scale {
	case "small":
		s = experiments.Small
	case "full":
		s = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "fleetsim: unknown scale %q\n", *scale)
		return 2
	}

	ids := []string{strings.ToUpper(*exp)}
	if strings.EqualFold(*exp, "all") {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		run, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "fleetsim: unknown experiment %q (have %v)\n",
				id, experiments.IDs())
			return 2
		}
		fmt.Println(strings.Repeat("=", 72))
		fmt.Print(run(s))
		fmt.Println()
	}
	return 0
}
