package remediate

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"", "default", "escalating", "swap"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if name != "" && p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("yolo"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestDefaultPolicyAlwaysDrains(t *testing.T) {
	p := DefaultPolicy{}
	for _, v := range []MachineView{
		{},
		{Score: 1000, Retests: 5, PoolRepairTickets: 0},
	} {
		if a := p.Decide(v); a.Kind != ActDrain {
			t.Fatalf("Decide(%+v) = %v, want drain", v, a.Kind)
		}
	}
}

func TestEscalatingPolicy(t *testing.T) {
	cases := []struct {
		name string
		p    EscalatingPolicy
		v    MachineView
		want ActionKind
	}{
		{"low score retests", EscalatingPolicy{}, MachineView{Score: 2}, ActRetest},
		{"strong evidence drains", EscalatingPolicy{}, MachineView{Score: 6}, ActDrain},
		{"retest budget spent", EscalatingPolicy{}, MachineView{Score: 2, Retests: 2}, ActDrain},
		{"custom threshold", EscalatingPolicy{ScoreThreshold: 100}, MachineView{Score: 50}, ActRetest},
		{"custom max retests", EscalatingPolicy{MaxRetests: 5}, MachineView{Score: 2, Retests: 4}, ActRetest},
	}
	for _, c := range cases {
		if a := c.p.Decide(c.v); a.Kind != c.want {
			t.Errorf("%s: Decide = %v, want %v", c.name, a.Kind, c.want)
		}
	}
	// Purity: same view, same answer.
	v := MachineView{Score: 3, Retests: 1}
	p := EscalatingPolicy{}
	if p.Decide(v) != p.Decide(v) {
		t.Fatal("policy is not pure")
	}
}

func TestSwapPolicy(t *testing.T) {
	p := SwapPolicy{}
	if a := p.Decide(MachineView{PoolRepairTickets: 2}); a.Kind != ActDrain {
		t.Fatalf("budget available: %v, want drain", a.Kind)
	}
	if a := p.Decide(MachineView{PoolRepairTickets: 0}); a.Kind != ActSwap {
		t.Fatalf("budget exhausted: %v, want swap", a.Kind)
	}
	// Negative means unbudgeted: the paper loop.
	if a := p.Decide(MachineView{PoolRepairTickets: -1}); a.Kind != ActDrain {
		t.Fatalf("unbudgeted pool: %v, want drain", a.Kind)
	}
}

func TestActionKindStrings(t *testing.T) {
	for k, want := range map[ActionKind]string{
		ActDrain: "drain", ActRetest: "retest", ActSwap: "swap", ActNone: "none",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestLogNotifierFormats(t *testing.T) {
	var buf bytes.Buffer
	n := NewLogNotifier(&buf)
	n.Notify(Event{Day: 3, Machine: "m1", From: "healthy", To: "cordoned", Reason: "cee", Actor: "detector"})
	n.Notify(Event{Day: 4, Machine: "m2", Kind: "defer", Pool: "web", Score: 7.5, Reason: "floor"})
	n.Notify(Event{Day: 5, Machine: "m2", Kind: "undefer", Reason: "admitted"})
	out := buf.String()
	for _, want := range []string{
		"day 3 machine m1 healthy -> cordoned",
		"drain deferred (pool web, score 7.50)",
		"deferred drain admitted",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// collector is a webhook endpoint that records received events and can be
// told to answer 500 a few times first.
func collector(t *testing.T) (*httptest.Server, func() int) {
	t.Helper()
	var mu sync.Mutex
	var got int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		got++
		mu.Unlock()
	}))
	t.Cleanup(srv.Close)
	return srv, func() int { mu.Lock(); defer mu.Unlock(); return got }
}

func TestWebhookRetriesTransportFaults(t *testing.T) {
	srv, received := collector(t)
	tr := chaos.NewTransport(nil)
	n := &WebhookNotifier{
		URL:     srv.URL,
		Client:  &http.Client{Transport: tr},
		Backoff: time.Millisecond,
	}
	// Two faults, four attempts: the third try lands.
	tr.Inject(chaos.Drop, 1)
	tr.Inject(chaos.HTTP503, 1)
	n.Notify(Event{Day: 1, Machine: "m1", To: "cordoned"})
	if n.Delivered() != 1 || n.Failed() != 0 {
		t.Fatalf("delivered %d failed %d, want 1/0", n.Delivered(), n.Failed())
	}
	if received() != 1 {
		t.Fatalf("endpoint received %d, want 1", received())
	}
	fired := tr.Fired()
	if fired[chaos.Drop] != 1 || fired[chaos.HTTP503] != 1 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestWebhookExhaustsRetries(t *testing.T) {
	srv, received := collector(t)
	tr := chaos.NewTransport(nil)
	n := &WebhookNotifier{
		URL:         srv.URL,
		Client:      &http.Client{Transport: tr},
		Backoff:     time.Millisecond,
		MaxAttempts: 3,
	}
	tr.Inject(chaos.Drop, 3)
	n.Notify(Event{Day: 1, Machine: "m1"})
	if n.Delivered() != 0 || n.Failed() != 1 {
		t.Fatalf("delivered %d failed %d, want 0/1", n.Delivered(), n.Failed())
	}
	if received() != 0 {
		t.Fatalf("endpoint received %d, want 0", received())
	}
}

// TestBackoffDelayClampedNoOverflow pins the notifier's defaults: a zero
// Backoff means a 25ms base, and the delay clamps at 32× base even at
// absurd attempt counts. The doubling itself is covered in
// internal/backoff.
func TestBackoffDelayClampedNoOverflow(t *testing.T) {
	n := &WebhookNotifier{}
	if d := n.backoffDelay(0); d != 25*time.Millisecond {
		t.Fatalf("delay(0) = %v, want the 25ms default base", d)
	}
	if d := n.backoffDelay(1 << 20); d != 32*25*time.Millisecond {
		t.Fatalf("delay(1<<20) = %v, want clamp at 32x base", d)
	}
}

func TestAsyncDeliversAndDrops(t *testing.T) {
	block := make(chan struct{})
	var mu sync.Mutex
	var got []string
	inner := notifierFunc(func(e Event) {
		<-block
		mu.Lock()
		got = append(got, e.Machine)
		mu.Unlock()
	})
	a := NewAsync(inner, 2)
	// First event occupies the sender (blocked); two fill the queue; the
	// fourth must be dropped, not block the caller.
	for _, id := range []string{"m1", "m2", "m3", "m4"} {
		a.Notify(Event{Machine: id})
	}
	if a.Dropped() == 0 {
		t.Fatal("full queue should have dropped at least one event")
	}
	close(block)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got)+a.Dropped() != 4 {
		t.Fatalf("delivered %d + dropped %d != 4", len(got), a.Dropped())
	}
	if got[0] != "m1" {
		t.Fatalf("first delivery = %q, want m1 (FIFO)", got[0])
	}
	// Notify after Close is a silent no-op.
	a.Notify(Event{Machine: "m5"})
}

// notifierFunc adapts a func to Notifier for tests.
type notifierFunc func(Event)

func (f notifierFunc) Notify(e Event) { f(e) }
func (f notifierFunc) Close() error   { return nil }
