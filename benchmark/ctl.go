package main

// ctl-flood: the control-plane daemon of §6.1's report → suspect → drain
// loop, served over loopback HTTP from a lifecycle ledger replayed out of
// a large write-ahead log. Two open-loop streams share it: suspect-report
// batches, which never touch the log, and operator verbs, each of which
// appends and fsyncs under the ledger lock.

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/lifecycle"
	"repro/internal/report"
	"repro/internal/xrand"
)

// ctlParams sizes the workload; the smoke tests shrink it.
type ctlParams struct {
	// records is the size of the generated ledger, in WAL records, over
	// machines ledger machines; reporters of them send suspect reports.
	records, machines, reporters int
	// reportRate and verbRate are the open-loop request rates, per
	// second; batch is the reports per batch.
	reportRate, verbRate float64
	batch                int
	setupReps            int
}

var ctlFull = ctlParams{
	records: 250_000, machines: 25_000, reporters: 2_000,
	reportRate: 2000, verbRate: 100, batch: 16,
	setupReps: 5,
}

var reportKinds = []string{"crash", "mce", "sanitizer", "app-error", "screen-fail", "user-report"}

// A verb cycle takes a fresh machine through the admin API; verbState is
// the state each verb must answer with, verbWAL the records it appends.
var (
	verbs     = [4]string{"cordon", "drain", "repair", "release"}
	verbState = [4]string{"cordoned", "drained", "repairing", "probation"}
	verbWAL   = [4][][2]string{
		{{"healthy", "cordoned"}},
		{{"cordoned", "draining"}, {"draining", "drained"}},
		{{"drained", "repairing"}},
		{{"repairing", "probation"}},
	}
)

// ledger describes the generated WAL, so the post-run check can prove its
// prefix untouched.
type ledger struct {
	path     string
	records  int
	bytes    int64
	crc      uint32
	machines []string
}

// nextState picks a legal next state for a ledger machine.
func nextState(s lifecycle.State, rng *xrand.RNG) lifecycle.State {
	r := rng.Intn(1000)
	if r < 2 {
		return lifecycle.Removed
	}
	switch s {
	case lifecycle.Healthy:
		if r < 700 {
			return lifecycle.Suspect
		}
		return lifecycle.Cordoned
	case lifecycle.Suspect:
		if r < 600 {
			return lifecycle.Cordoned
		}
		return lifecycle.Healthy
	case lifecycle.Cordoned:
		if r < 800 {
			return lifecycle.Draining
		}
		return lifecycle.Healthy
	case lifecycle.Draining:
		return lifecycle.Drained
	case lifecycle.Drained:
		if r < 850 {
			return lifecycle.Repairing
		}
		return lifecycle.Healthy
	case lifecycle.Repairing:
		return lifecycle.Probation
	default: // Probation
		if r < 800 {
			return lifecycle.Healthy
		}
		if r < 950 {
			return lifecycle.Suspect
		}
		return lifecycle.Cordoned
	}
}

// writeLedger generates a year of lifecycle history from the seed through
// the WAL's own Append: pool assignments, transitions along legal edges,
// and parked-then-cancelled drain intents.
func writeLedger(path string, p ctlParams, seed uint64) (ledger, error) {
	lg := ledger{path: path, machines: make([]string, p.machines)}
	w, _, _, err := lifecycle.OpenWAL(path)
	if err != nil {
		return lg, err
	}
	// Generation only: the served log syncs every append.
	w.NoSync = true
	add := func(t lifecycle.Transition) {
		if err == nil {
			_, err = w.Append(t)
			lg.records++
		}
	}
	rng := xrand.New(seed).ForkString("ledger")
	states := make([]lifecycle.State, p.machines)
	pools := [2]string{"web", "batch"}
	for i := range lg.machines {
		lg.machines[i] = fmt.Sprintf("m%06d", i)
		add(lifecycle.Transition{Machine: lg.machines[i], Kind: lifecycle.KindAssign, Pool: pools[i%2], Actor: "config"})
	}
	for lg.records < p.records && err == nil {
		i := rng.Intn(p.machines)
		day := lg.records * 365 / p.records
		from := states[i]
		switch {
		case from == lifecycle.Removed:
			continue
		case rng.Intn(200) == 0:
			add(lifecycle.Transition{Day: day, Machine: lg.machines[i], Kind: lifecycle.KindDefer,
				To: "draining", Pool: pools[i%2], Score: rng.Float64(), Reason: "floor", Actor: "ledger"})
			add(lifecycle.Transition{Day: day, Machine: lg.machines[i], Kind: lifecycle.KindUndefer,
				Reason: "canceled", Actor: "ledger"})
			continue
		}
		to := nextState(from, rng)
		add(lifecycle.Transition{Day: day, Machine: lg.machines[i], From: from.String(), To: to.String(),
			Reason: "ledger", Actor: "ledger"})
		states[i] = to
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return lg, fmt.Errorf("generate ledger: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return lg, err
	}
	lg.bytes, lg.crc = int64(len(data)), crc32.ChecksumIEEE(data)
	return lg, nil
}

// ctlRig is one running daemon: ledger, report server, HTTP listener.
type ctlRig struct {
	mgr    *lifecycle.Manager
	srv    *report.Server
	http   *httptest.Server
	replay float64 // seconds lifecycle.Open took
}

// startCtl replays the WAL and starts the daemon on loopback.
func startCtl(lg ledger, opts lifecycle.Options, wrap func(http.Handler) http.Handler, onSignal func(detect.Signal)) (*ctlRig, error) {
	t0 := time.Now()
	m, info, err := lifecycle.Open(lg.path, opts)
	if err != nil {
		return nil, err
	}
	rig := &ctlRig{mgr: m, replay: time.Since(t0).Seconds()}
	if info.Records < lg.records {
		m.Close()
		return nil, fmt.Errorf("replayed %d of %d ledger records", info.Records, lg.records)
	}
	m.DefinePool(lifecycle.PoolConfig{Name: "web", MinHealthy: 0.8})
	m.DefinePool(lifecycle.PoolConfig{Name: "batch", MinHealthyCount: len(lg.machines) / 4})
	rig.srv = report.NewServer(32)
	rig.srv.OnSignal = onSignal
	rig.srv.EnableQueue(0)
	rig.srv.SetLifecycle(m)
	h := rig.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	rig.http = httptest.NewServer(h)
	return rig, nil
}

func (r *ctlRig) close() error {
	r.http.Close()
	r.srv.Close()
	return r.mgr.Close()
}

// Request and span ids travel to the server in these headers, so that
// server-side spans join the client's request.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

type idsKey struct{}

type ids struct{ req, span int64 }

// tagTransport copies the request's ids from its context into headers.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if v, ok := r.Context().Value(idsKey{}).(ids); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.FormatInt(v.req, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(v.span, 10))
	}
	return t.base.RoundTrip(r)
}

// ctlTrace is a traced run's instrumentation; nothing records while on
// is false, that is, outside the traced sub-windows.
type ctlTrace struct {
	on     atomic.Bool
	tr     *tracer
	server *spanLog
	// verbReq and verbSpan identify the verb being served, and verbOn
	// says a traced one is; verbs are issued one at a time, so WAL file
	// calls and applied transitions belong to it.
	verbReq, verbSpan             atomic.Int64
	verbOn                        atomic.Bool
	writes, syncs, bytes, applied atomic.Int64
	// shed is the server's shed count over the traced sub-windows;
	// shedAt is the count when the current one began.
	shed, shedAt float64
	stopProfile  func()
}

func newCtlTrace() *ctlTrace {
	t := &ctlTrace{tr: newTracer()}
	t.server = t.tr.shared()
	return t
}

// wrap times each request inside the server's handler.
func (t *ctlTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		name := "report.Server.Handler/reports"
		if strings.HasPrefix(r.URL.Path, "/v1/machines/") {
			name = "report.Server.Handler/verbs"
		}
		id, start := t.server.open()
		verb := name == "report.Server.Handler/verbs"
		if verb {
			t.verbReq.Store(req)
			t.verbSpan.Store(id)
			t.verbOn.Store(true)
		}
		h.ServeHTTP(w, r)
		if verb {
			t.verbOn.Store(false)
		}
		t.server.close(id, name, parent, req, start)
	})
}

// timingFS is the lifecycle.FS the traced daemon's WAL is opened on: the
// real filesystem, with writes and fsyncs timed.
type timingFS struct{ t *ctlTrace }

func (f timingFS) OpenFile(path string) (lifecycle.File, error) {
	file, err := lifecycle.OSFS().OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, t: f.t}, nil
}

type timingFile struct {
	lifecycle.File
	t *ctlTrace
}

func (f *timingFile) Write(p []byte) (int, error) {
	if !f.t.verbOn.Load() {
		return f.File.Write(p)
	}
	start := f.t.tr.now()
	n, err := f.File.Write(p)
	f.t.server.record("lifecycle.File.Write", f.t.verbSpan.Load(), f.t.verbReq.Load(), start, f.t.tr.now())
	f.t.writes.Add(1)
	f.t.bytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	if !f.t.verbOn.Load() {
		return f.File.Sync()
	}
	start := f.t.tr.now()
	err := f.File.Sync()
	f.t.server.record("lifecycle.File.Sync", f.t.verbSpan.Load(), f.t.verbReq.Load(), start, f.t.tr.now())
	f.t.syncs.Add(1)
	return err
}

// stream is one open-loop request generator. Latencies are in ms, from
// each request's due time.
type stream struct {
	lat                latencies
	lateMax            float64 // how far behind schedule a request started, ms
	ok, failed, unsent int64
	firstErr           string
}

// run issues call(i) for i = 0, 1, ... at start + i/rate until end, one
// request at a time, and files each latency under its due time's
// sub-window.
func (st *stream) run(start, end time.Time, slice time.Duration, rate float64, call func(i int64, due time.Time) error) {
	period := float64(time.Second) / rate
	for i := int64(0); ; i++ {
		due := start.Add(time.Duration(float64(i) * period))
		if !due.Before(end) {
			return
		}
		if now := time.Now(); !now.Before(end) {
			// The window is over with requests still due: the daemon fell
			// behind. Each unsent request counts at the lower bound of its
			// latency, so a slower daemon cannot stretch the run.
			st.unsent++
			st.lat.add(ms(now.Sub(due)), int(due.Sub(start)/slice))
			continue
		}
		sleepUntil(due)
		st.lateMax = max(st.lateMax, ms(time.Since(due)))
		err := call(i, due)
		st.lat.add(ms(time.Since(due)), int(due.Sub(start)/slice))
		if err != nil {
			st.failed++
			if st.firstErr == "" {
				st.firstErr = err.Error()
			}
		} else {
			st.ok++
		}
	}
}

// ackedVerb is a verb the daemon answered with the expected state.
type ackedVerb struct {
	machine string
	verb    int
}

// ctlLoad is the client side: both streams and what they observed.
type ctlLoad struct {
	p       ctlParams
	lg      ledger
	rig     *ctlRig
	reports *report.Client
	admin   *report.Client
	rng     *xrand.RNG
	trace   *ctlTrace // nil in an untraced run
	client  *spanLog
	// due[i] is batch i's due time (ns since epoch), read back when the
	// server's OnSignal sees it; acked[i] is when its handler returned.
	epoch      time.Time
	due, acked []atomic.Int64
	// lags and waits are detect lag and queue wait, ms, appended by the
	// serialized OnSignal callback into room for every batch.
	lags, waits []float64
	verbsDone   []ackedVerb
	depthMax    int
}

func newCtlLoad(p ctlParams, lg ledger, seed uint64, window time.Duration, t *ctlTrace) *ctlLoad {
	// Room for every batch of the run, with slack for each window's
	// rounding.
	n := int(math.Ceil(window.Seconds()*p.reportRate)) + 16
	l := &ctlLoad{
		p: p, lg: lg, rng: xrand.New(seed).ForkString("reports"), trace: t,
		epoch: time.Now(), due: make([]atomic.Int64, n), acked: make([]atomic.Int64, n),
		lags: make([]float64, 0, n), waits: make([]float64, 0, n),
	}
	l.reports = newClient(t)
	l.admin = newClient(t)
	if t != nil {
		l.client = t.tr.shared()
	}
	return l
}

// newClient returns a client with one connection of its own and no
// retries: a refused or failed request counts as failed.
func newClient(t *ctlTrace) *report.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if t != nil {
		rt = tagTransport{base: rt}
	}
	return &report.Client{HTTPClient: &http.Client{Transport: rt, Timeout: 10 * time.Second}, MaxAttempts: 1}
}

// onSignal is the server's OnSignal hook: the tracker has applied the
// signal. Only a batch's first report carries its index.
func (l *ctlLoad) onSignal(sig detect.Signal) {
	if !strings.HasPrefix(sig.Detail, "b") {
		return
	}
	i, err := strconv.Atoi(sig.Detail[1:])
	if err != nil || i >= len(l.due) {
		return
	}
	now := int64(time.Since(l.epoch))
	l.lags = append(l.lags, float64(now-l.due[i].Load())/1e6)
	if a := l.acked[i].Load(); a != 0 {
		l.waits = append(l.waits, float64(now-a)/1e6)
	}
}

// begin opens a client span and returns the context carrying its ids and
// the function that closes it; outside the traced sub-windows it opens
// none and returns a nil function.
func (l *ctlLoad) begin(name string, req int64) (context.Context, func()) {
	if l.trace == nil || !l.trace.on.Load() {
		return context.Background(), nil
	}
	id, start := l.client.open()
	ctx := context.WithValue(context.Background(), idsKey{}, ids{req: req, span: id})
	return ctx, func() { l.client.close(id, name, 0, req, start) }
}

func (l *ctlLoad) report(i int64, due time.Time) error {
	b := report.Batch{Source: "perfbench", Seq: uint64(i + 1), Reports: make([]report.Report, l.p.batch)}
	for j := range b.Reports {
		b.Reports[j] = report.Report{
			Machine: l.lg.machines[l.rng.Intn(l.p.reporters)],
			Core:    l.rng.Intn(33) - 1,
			Kind:    reportKinds[l.rng.Intn(len(reportKinds))],
			TimeSec: float64(i),
		}
	}
	if i >= int64(len(l.due)) {
		return fmt.Errorf("batch %d past the %d the run was sized for", i, len(l.due))
	}
	b.Reports[0].Detail = "b" + strconv.FormatInt(i, 10)
	l.due[i].Store(int64(due.Sub(l.epoch)))
	ctx, end := l.begin("report.Client.ReportBatch", i)
	ack, err := l.reports.ReportBatchContext(ctx, b)
	if end != nil {
		end()
		l.acked[i].Store(int64(time.Since(l.epoch)))
		l.depthMax = max(l.depthMax, l.rig.srv.QueueDepth())
	}
	if err != nil {
		return err
	}
	if ack.Accepted != len(b.Reports) {
		return fmt.Errorf("batch %d: %d of %d reports accepted (%s)", i, ack.Accepted, len(b.Reports), ack.Status)
	}
	return nil
}

func (l *ctlLoad) verb(i int64, _ time.Time) error {
	machine := fmt.Sprintf("v%07d", i/4)
	k := int(i % 4)
	ctx, end := l.begin("report.Client.MachineAction", -1-i)
	rec, err := l.admin.MachineAction(ctx, machine, verbs[k], report.ActionRequest{Reason: "perfbench", Actor: "perfbench"})
	if end != nil {
		end()
	}
	if err != nil {
		return err
	}
	if rec.State != verbState[k] {
		return fmt.Errorf("%s %s: state %q, want %q", verbs[k], machine, rec.State, verbState[k])
	}
	l.verbsDone = append(l.verbsDone, ackedVerb{machine: machine, verb: k})
	return nil
}

// window runs both streams for d. In a traced run a third goroutine
// switches the trace on and off at the sub-window boundaries (see
// alternate).
func (l *ctlLoad) window(d time.Duration) (reports, verbs *stream) {
	reports, verbs = &stream{}, &stream{}
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	slice := sliceOf(d)
	var wg sync.WaitGroup
	if l.trace != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			alternate(start, end, slice, func(on bool) { l.trace.set(on, l.rig.srv) })
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		reports.run(start, end, slice, l.p.reportRate, l.report)
	}()
	go func() {
		defer wg.Done()
		verbs.run(start, end, slice, l.p.verbRate, l.verb)
	}()
	wg.Wait()
	return reports, verbs
}

// set switches the trace, with mutex profiling, on or off at a sub-window
// boundary, and adds up the server's shed count over traced sub-windows.
func (t *ctlTrace) set(on bool, srv *report.Server) {
	shed := counter(srv, "ceereport_signals_shed_total")
	if t.on.Load() {
		t.shed += shed - t.shedAt
		t.stopProfile()
	}
	t.shedAt = shed
	t.on.Store(on)
	if on {
		t.stopProfile = startMutexProfile()
	}
}

// checkWAL reopens the log after the daemon stopped and checks acked ⇒
// durable: the generated prefix is byte-identical, and the records after
// it are exactly the acked verbs' transitions, in order. It returns the
// number of acked verbs the log does not account for.
func checkWAL(lg ledger, acked []ackedVerb) (int, []string) {
	data, err := os.ReadFile(lg.path)
	if err != nil {
		return len(acked), []string{err.Error()}
	}
	var bad int
	var errs []string
	if int64(len(data)) < lg.bytes || crc32.ChecksumIEEE(data[:lg.bytes]) != lg.crc {
		bad++
		errs = append(errs, "ctl: the pre-populated ledger changed on disk")
	}
	w, recs, _, err := lifecycle.OpenWAL(lg.path)
	if err != nil {
		return bad + len(acked), append(errs, fmt.Sprintf("ctl: reopen WAL: %v", err))
	}
	w.Close()
	if len(recs) < lg.records {
		return bad + len(acked), append(errs, fmt.Sprintf("ctl: WAL replays %d records, ledger had %d", len(recs), lg.records))
	}
	tail := recs[lg.records:]
	j := 0
	for n, v := range acked {
		for _, e := range verbWAL[v.verb] {
			if j >= len(tail) || tail[j].Machine != v.machine || tail[j].Kind != "" ||
				tail[j].From != e[0] || tail[j].To != e[1] {
				return bad + len(acked) - n, append(errs, fmt.Sprintf(
					"ctl: acked %s of %s is not durable: WAL record %d of the run does not match",
					verbs[v.verb], v.machine, j))
			}
			j++
		}
	}
	if j != len(tail) {
		bad++
		errs = append(errs, fmt.Sprintf("ctl: WAL holds %d records no acked verb accounts for", len(tail)-j))
	}
	return bad, errs
}

func runCtl(rc runConfig, p ctlParams) (*outcome, error) {
	out := newOutcome()
	lg, err := writeLedger(filepath.Join(rc.scratch, "ledger.wal"), p, rc.seed)
	if err != nil {
		return nil, err
	}
	out.detail["ledger_records"] = lg.records
	out.detail["ledger_mb"] = float64(lg.bytes) / (1 << 20)
	out.detail["report_rate"] = p.reportRate
	out.detail["verb_rate"] = p.verbRate
	out.detail["batch"] = p.batch

	var t *ctlTrace
	if rc.trace {
		t = newCtlTrace()
	}
	load := newCtlLoad(p, lg, rc.seed, rc.window, t)
	setups, replays, err := load.start(p.setupReps)
	if err != nil {
		return nil, err
	}
	start, cpu0 := time.Now(), cpuTime()
	reports, verbs := load.window(rc.window)
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	if rc.trace {
		lockMs, err := lockWaitMs("repro/internal/lifecycle")
		if err != nil {
			return nil, err
		}
		if err := load.stop(out, reports, verbs); err != nil {
			return nil, err
		}
		t.layers(out, load)
		out.layer["report.shed"] = t.shed
		out.layer["lifecycle.replay_s"] = median(replays)
		out.layer["lifecycle.lock_wait_ms"] = lockMs
		out.layer["ctl.gen_late_ms"] = max(reports.lateMax, verbs.lateMax)
		out.layer["trace_overhead_pct"] = tracedOverheadPct(&reports.lat, &verbs.lat)
		return out, finishTrace(t.tr, rc, out)
	}
	// The samples, and the due, acked, lags and waits arrays sized in
	// newCtlLoad, are the harness's own memory.
	heap := liveHeapMB(reports.lat.bytes() + verbs.lat.bytes() + 32*len(load.due))
	if err := load.stop(out, reports, verbs); err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["heap_mb"] = heap
	out.e2e["ops_per_s"] = float64(reports.ok+verbs.ok) / elapsed.Seconds()
	out.e2e["cpu_ms_per_op"] = ms(cpu) / float64(reports.ok+verbs.ok)
	out.e2e["p50_ms"] = windowedQuantile(0.50, nil, &reports.lat, &verbs.lat)
	rl, vl, lags := pooled(&reports.lat), pooled(&verbs.lat), sortedCopy(load.lags)
	out.detail["ctl.report_p50_ms"] = percentile(rl, 0.50)
	out.detail["ctl.report_p99_ms"] = percentile(rl, 0.99)
	out.detail["ctl.report_samples"] = len(rl)
	out.detail["ctl.verb_p50_ms"] = percentile(vl, 0.50)
	out.detail["ctl.verb_p90_ms"] = percentile(vl, 0.90)
	out.detail["ctl.verb_samples"] = len(vl)
	out.detail["ctl.detect_lag_p99_ms"] = percentile(lags, 0.99)
	out.detail["ctl.detect_lag_samples"] = len(lags)
	out.detail["ctl.gen_late_ms"] = max(reports.lateMax, verbs.lateMax)
	out.detail["ctl.unsent"] = reports.unsent + verbs.unsent
	out.detail["setup_reps_s"] = setups
	return out, nil
}

// start brings the daemon up reps times, each from a fresh replay of the
// ledger, and keeps the last; it returns each set-up's and replay's time.
func (l *ctlLoad) start(reps int) (setups, replays []float64, err error) {
	opts := lifecycle.Options{}
	var wrap func(http.Handler) http.Handler
	if t := l.trace; t != nil {
		opts.FS = timingFS{t: t}
		opts.Observer = func(lifecycle.Transition) {
			if t.verbOn.Load() {
				t.applied.Add(1)
			}
		}
		wrap = t.wrap
	}
	for i := 0; i < reps; i++ {
		if l.rig != nil {
			if err := l.rig.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC() // each replay starts from the same heap
		t0 := time.Now()
		if l.rig, err = startCtl(l.lg, opts, wrap, l.onSignal); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		replays = append(replays, l.rig.replay)
	}
	l.reports.BaseURL = l.rig.http.URL
	l.admin.BaseURL = l.rig.http.URL
	return setups, replays, nil
}

// stop shuts the daemon down, counts the streams' requests, and checks
// the WAL against the acked verbs.
func (l *ctlLoad) stop(out *outcome, streams ...*stream) error {
	if err := l.rig.close(); err != nil {
		return err
	}
	for _, st := range streams {
		out.attempted += st.ok + st.failed
		out.failed += st.failed
		if st.failed > 0 {
			out.fail("ctl: %d requests failed (first: %s)", st.failed, st.firstErr)
		}
	}
	bad, errs := checkWAL(l.lg, l.verbsDone)
	out.failed += int64(bad)
	out.gate = append(out.gate, errs...)
	out.detail["verbs_acked"] = len(l.verbsDone)
	return nil
}

// layers turns the traced window's spans and counts into the report and
// lifecycle per-layer figures.
func (t *ctlTrace) layers(out *outcome, l *ctlLoad) {
	dur := func(name string) []float64 { // ms
		d := sortedCopy(t.tr.durations(name))
		for i := range d {
			d[i] /= 1e3
		}
		return d
	}
	rh, vh := dur("report.Server.Handler/reports"), dur("report.Server.Handler/verbs")
	wr, fs := dur("lifecycle.File.Write"), dur("lifecycle.File.Sync")
	applied := float64(t.applied.Load())
	out.layer["report.reports_handler_p50_ms"] = percentile(rh, 0.50)
	out.layer["report.reports_handler_p99_ms"] = percentile(rh, 0.99)
	out.layer["report.verbs_handler_p50_ms"] = percentile(vh, 0.50)
	out.layer["report.verbs_handler_p90_ms"] = percentile(vh, 0.90)
	out.layer["report.queue_wait_p99_ms"] = percentile(sortedCopy(l.waits), 0.99)
	out.layer["report.queue_depth_max"] = float64(l.depthMax)
	out.layer["lifecycle.wal_write_p50_us"] = percentile(wr, 0.50) * 1e3
	out.layer["lifecycle.wal_write_p99_us"] = percentile(wr, 0.99) * 1e3
	out.layer["lifecycle.fsync_p50_us"] = percentile(fs, 0.50) * 1e3
	out.layer["lifecycle.fsync_p99_us"] = percentile(fs, 0.99) * 1e3
	out.layer["lifecycle.fsyncs_per_transition"] = ratio(float64(t.syncs.Load()), applied)
	out.layer["lifecycle.wal_bytes_per_transition"] = ratio(float64(t.bytes.Load()), applied)
}

// counter reads one counter from the server's registry.
func counter(s *report.Server, name string) float64 {
	var v float64
	for _, series := range s.Metrics().Snapshot() {
		if series.Name == name {
			v += series.Value
		}
	}
	return v
}
