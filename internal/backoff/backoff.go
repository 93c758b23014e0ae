// Package backoff computes clamped exponential retry delays — the one
// doubling ladder shared by the kvdb read path, the report client, the
// webhook notifier and the taskrun supervisor.
package backoff

import "time"

// Delay returns the wait before retry number retry (0-based): base
// doubled once per completed retry, clamped at max. Doubling is stepwise
// with an overflow guard — a raw shift by the retry count overflows
// time.Duration (a signed 64-bit int) — so any retry count saturates at
// max instead of going negative or to zero and skipping the sleep.
// A non-positive base returns 0 without doing any work: zero base means
// "do not back off".
func Delay(base, max time.Duration, retry int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < retry && d < max; i++ {
		d <<= 1
		if d <= 0 { // overflowed
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}
