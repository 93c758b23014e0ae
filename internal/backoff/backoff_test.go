package backoff

import (
	"math"
	"testing"
	"time"
)

// TestDelayDoublesThenClamps is the clamp table: base doubled per retry,
// saturating at the cap for any retry count — including counts whose raw
// shift would overflow time.Duration.
func TestDelayDoublesThenClamps(t *testing.T) {
	cases := []struct {
		base, max time.Duration
		retry     int
		want      time.Duration
	}{
		// kvdb read ladder: 10ms base, 1h cap.
		{10 * time.Millisecond, time.Hour, 0, 10 * time.Millisecond},
		{10 * time.Millisecond, time.Hour, 1, 20 * time.Millisecond},
		{10 * time.Millisecond, time.Hour, 5, 320 * time.Millisecond},
		{10 * time.Millisecond, time.Hour, 40, time.Hour},
		{10 * time.Millisecond, time.Hour, 63, time.Hour},
		{10 * time.Millisecond, time.Hour, 64, time.Hour},
		{10 * time.Millisecond, time.Hour, 100, time.Hour},
		{10 * time.Millisecond, time.Hour, 1 << 20, time.Hour},
		// report client: 50ms base, 5s cap.
		{50 * time.Millisecond, 5 * time.Second, 0, 50 * time.Millisecond},
		{50 * time.Millisecond, 5 * time.Second, 3, 400 * time.Millisecond},
		{50 * time.Millisecond, 5 * time.Second, 7, 5 * time.Second},
		{50 * time.Millisecond, 5 * time.Second, 62, 5 * time.Second},
		{50 * time.Millisecond, 5 * time.Second, 63, 5 * time.Second},
		{50 * time.Millisecond, 5 * time.Second, 64, 5 * time.Second},
		{50 * time.Millisecond, 5 * time.Second, 200, 5 * time.Second},
		{50 * time.Millisecond, 5 * time.Second, 1 << 30, 5 * time.Second},
		// webhook notifier: 25ms base, 32x cap.
		{25 * time.Millisecond, 800 * time.Millisecond, 0, 25 * time.Millisecond},
		{25 * time.Millisecond, 800 * time.Millisecond, 3, 200 * time.Millisecond},
		{25 * time.Millisecond, 800 * time.Millisecond, 5, 800 * time.Millisecond},
		{25 * time.Millisecond, 800 * time.Millisecond, 6, 800 * time.Millisecond},
		{25 * time.Millisecond, 800 * time.Millisecond, 63, 800 * time.Millisecond},
		{25 * time.Millisecond, 800 * time.Millisecond, 64, 800 * time.Millisecond},
		{25 * time.Millisecond, 800 * time.Millisecond, 100, 800 * time.Millisecond},
		{25 * time.Millisecond, 800 * time.Millisecond, 1 << 20, 800 * time.Millisecond},
		// A cap below base clamps even the first retry.
		{time.Second, time.Millisecond, 0, time.Millisecond},
	}
	for _, c := range cases {
		if got := Delay(c.base, c.max, c.retry); got != c.want {
			t.Errorf("Delay(%v, %v, %d) = %v, want %v", c.base, c.max, c.retry, got, c.want)
		}
	}
}

// TestDelayCeilingCap: a cap at the Duration ceiling must still terminate
// and stay positive and non-decreasing — the case where unguarded
// doubling wraps negative and then to zero.
func TestDelayCeilingCap(t *testing.T) {
	for _, base := range []time.Duration{time.Nanosecond, time.Hour} {
		prev := time.Duration(0)
		for retry := 0; retry <= 200; retry++ {
			d := Delay(base, math.MaxInt64, retry)
			if d <= 0 || d < prev {
				t.Fatalf("Delay(%v, MaxInt64, %d) = %v after %v: want positive and non-decreasing",
					base, retry, d, prev)
			}
			prev = d
		}
		if prev != math.MaxInt64 {
			t.Fatalf("Delay(%v, MaxInt64, 200) = %v, want saturation at the cap", base, prev)
		}
	}
}

// TestDelayZeroBase: a non-positive base disables backoff at any retry
// count and any cap.
func TestDelayZeroBase(t *testing.T) {
	for _, base := range []time.Duration{0, -time.Second} {
		for _, retry := range []int{0, 1, 64} {
			if got := Delay(base, time.Hour, retry); got != 0 {
				t.Fatalf("Delay(%v, 1h, %d) = %v, want 0", base, retry, got)
			}
		}
	}
}
