package main

import (
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
)

// baselineWorkload is a small store with one defective replica (replica 0,
// first in the round-robin), so the first read of any row hits a checksum
// failure and emits a suspect signal.
var baselineWorkload = kvWorkload{replicas: 3, defective: 1, rows: 8}

// TestSingleLockBaselineServes: the kvbench baseline runs the full
// mitigation ladder and serves only committed bytes under concurrent
// mixed traffic.
func TestSingleLockBaselineServes(t *testing.T) {
	counts := &kvSignalCount{byRef: map[string]int{}}
	tdb, _, err := kvBuildStore(baselineWorkload, counts.sink)
	if err != nil {
		t.Fatal(err)
	}
	srv := &singleLockDB{db: tdb}
	for i := 0; i < baselineWorkload.rows; i++ {
		srv.Put(kvKey(i), kvValue(kvKey(i), 0))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := kvKey((w + i) % baselineWorkload.rows)
				switch i % 4 {
				case 0:
					srv.Put(key, kvValue(key, i))
				case 1:
					srv.QueryByValue(kvValue(key, 0))
				default:
					if v, _, err := srv.GetTraced(key); err != nil || !kvValueOK(key, v) {
						t.Errorf("get %s = %q, %v: not a committed value", key, v, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := tdb.Stats()
	if st.Errors != 0 || st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("baseline stats: %+v", st)
	}
	if st.SignalsSent == 0 || st.SignalsSent != counts.total {
		t.Fatalf("SignalsSent = %d, sink saw %d", st.SignalsSent, counts.total)
	}
}

// TestSingleLockBaselineSerializes: signal delivery happens inside the
// baseline's lock, so while one read is parked in a blocked sink no other
// operation completes. The sharded store, fed the same traffic, keeps
// serving — which is the difference kvbench measures.
func TestSingleLockBaselineSerializes(t *testing.T) {
	for _, single := range []bool{true, false} {
		entered := make(chan struct{}, 1)
		release := make(chan struct{})
		var once sync.Once
		sink := func(detect.Signal) error {
			once.Do(func() {
				entered <- struct{}{}
				<-release
			})
			return nil
		}
		tdb, _, err := kvBuildStore(baselineWorkload, sink)
		if err != nil {
			t.Fatal(err)
		}
		var srv kvServer = tdb
		if single {
			srv = &singleLockDB{db: tdb}
		}
		for i := 0; i < baselineWorkload.rows; i++ {
			srv.Put(kvKey(i), kvValue(kvKey(i), 0))
		}
		go srv.GetTraced(kvKey(0)) // parks in the sink on its checksum failure
		<-entered
		done := make(chan struct{})
		go func() {
			srv.Put(kvKey(1), kvValue(kvKey(1), 1))
			close(done)
		}()
		if single {
			select {
			case <-done:
				t.Fatal("single-lock baseline: a write completed while a read held the lock")
			case <-time.After(50 * time.Millisecond):
			}
		} else {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("sharded store: a write stalled behind another read's signal delivery")
			}
		}
		close(release)
		<-done
	}
}
