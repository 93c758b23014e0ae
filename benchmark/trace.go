package main

// Tracing for the per-layer run. Spans are recorded only from this
// package, around its calls into the library's public functions, and kept
// in memory until the run ends, when they are written to one file.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/xrand"
)

// maxSpansPerLog bounds each log's memory. A log offered more spans keeps
// a uniform sample of them (reservoir sampling), so that a fast workload
// cannot grow the trace without bound and the kept spans still cover the
// whole traced time.
const maxSpansPerLog = 1 << 19

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the id of the span that caused this one (0 for a root).
type span struct {
	id, parent, req int64
	name            string
	start, end      int64 // ns since the tracer's epoch
}

// tracer owns the span logs of one traced window.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanLog is an append-only span buffer. A log returned by log() belongs
// to one goroutine; one returned by shared() may be used from any.
type spanLog struct {
	t     *tracer
	mu    *sync.Mutex // nil for a single-goroutine log
	id    int64
	spans []span
	seen  int64      // spans offered, kept or not
	rng   *xrand.RNG // picks the kept sample once the log is full
}

func (t *tracer) newLog(mu *sync.Mutex) *spanLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.logs) + 1)
	l := &spanLog{t: t, mu: mu, id: id, rng: xrand.New(uint64(id))}
	t.logs = append(t.logs, l)
	return l
}

// log returns a log for one goroutine.
func (t *tracer) log() *spanLog { return t.newLog(nil) }

// shared returns a log that serializes its callers.
func (t *tracer) shared() *spanLog { return t.newLog(&sync.Mutex{}) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (l *spanLog) lock() {
	if l.mu != nil {
		l.mu.Lock()
	}
}

func (l *spanLog) unlock() {
	if l.mu != nil {
		l.mu.Unlock()
	}
}

// nextID numbers the log's next span; the caller holds the lock.
func (l *spanLog) nextID() int64 {
	l.seen++
	return l.id<<32 | l.seen
}

// keep adds a finished span to the sample; the caller holds the lock.
func (l *spanLog) keep(s span) {
	if len(l.spans) < maxSpansPerLog {
		l.spans = append(l.spans, s)
	} else if j := l.rng.Uint64n(uint64(l.seen)); j < maxSpansPerLog {
		l.spans[j] = s
	}
}

// record adds a finished span and returns its id.
func (l *spanLog) record(name string, parent, req, start, end int64) int64 {
	l.lock()
	defer l.unlock()
	id := l.nextID()
	l.keep(span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	return id
}

// open starts a span that close records when it ends, and returns its id
// and start time; spans it causes may name the id as their parent before
// it closes.
func (l *spanLog) open() (id, start int64) {
	l.lock()
	defer l.unlock()
	return l.nextID(), l.t.now()
}

func (l *spanLog) close(id int64, name string, parent, req, start int64) {
	end := l.t.now()
	l.lock()
	defer l.unlock()
	l.keep(span{id: id, parent: parent, req: req, name: name, start: start, end: end})
}

// each calls fn with every log, holding the log's lock if it has one.
func (t *tracer) each(fn func(*spanLog)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.logs {
		l.lock()
		fn(l)
		l.unlock()
	}
}

// durations returns the durations, in µs, of every kept span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	t.each(func(l *spanLog) {
		for _, s := range l.spans {
			if s.name == name {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	})
	return out
}

// write saves every kept span as tab-separated lines:
// id, parent, req, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	t.each(func(l *spanLog) {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
		}
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace writes the span log and records its size in the detail.
func finishTrace(tr *tracer, rc runConfig, out *outcome) error {
	kept, dropped := 0, 0
	tr.each(func(l *spanLog) {
		kept += len(l.spans)
		dropped += int(l.seen) - len(l.spans)
	})
	out.detail["spans_kept"] = kept
	out.detail["spans_dropped"] = dropped
	out.detail["spans_file"] = rc.spans
	return tr.write(rc.spans)
}

// startMutexProfile turns on full mutex-contention sampling; the returned
// function turns it off again.
func startMutexProfile() func() {
	prev := runtime.SetMutexProfileFraction(1)
	return func() { runtime.SetMutexProfileFraction(prev) }
}

// lockWaitMs returns the mutex contention delay, in ms, that the runtime
// profile attributes to stacks passing through a function of package pkg
// (an import path such as "repro/internal/kvdb").
func lockWaitMs(pkg string) (float64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		return 0, err
	}
	return parseLockWait(buf.String(), pkg+".")
}

// parseLockWait reads the debug=1 text form of the mutex profile: a
// cycles/second header, then records of "<cycles> <count> @ <pcs>" each
// followed by "#"-prefixed symbolized frames.
func parseLockWait(profile, prefix string) (float64, error) {
	var hz, total, cur float64
	inPkg := false
	flush := func() {
		if inPkg {
			total += cur
		}
		cur, inPkg = 0, false
	}
	for _, line := range strings.Split(profile, "\n") {
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
			if err != nil {
				return 0, fmt.Errorf("mutex profile header: %w", err)
			}
			hz = v
		case strings.Contains(line, " @ "):
			flush()
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("mutex profile record %q: %w", line, err)
			}
			cur = v
		case strings.HasPrefix(line, "#"):
			if f := strings.Fields(line); len(f) >= 3 && strings.HasPrefix(f[2], prefix) {
				inPkg = true
			}
		}
	}
	flush()
	if hz == 0 {
		return 0, nil
	}
	return total / hz * 1e3, nil
}
