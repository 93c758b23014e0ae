package main

import (
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "record the full-size populations' references in fleet_golden.json")

// goldenDays is how many days of each population the references hold:
// the warm-up day and the days of the longest window a run accepts.
func goldenDays() int { return fleetDays(fleetFull, maxSeconds*time.Second) + 1 }

// TestUpdateFleetGolden records the serial-path fingerprints of every
// full-size reference population, so that runs check against a stored
// reference instead of recomputing it:
//
//	go test -run TestUpdateFleetGolden -update-golden -timeout 1h
//
// Record references only at a commit whose simulation output is trusted.
func TestUpdateFleetGolden(t *testing.T) {
	if !*updateGolden {
		t.Skip("set -update-golden to record references")
	}
	g := fleetGolden{Machines: fleetFull.machines, Seeds: map[string][]string{}}
	n := goldenDays()
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		jobs = make(chan uint64)
	)
	for w := 0; w < maxWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pop := range jobs {
				prints, err := serialFingerprints(fleetConfig(fleetFull, pop), n)
				if err != nil {
					t.Error(err)
					continue
				}
				mu.Lock()
				g.Seeds[strconv.FormatUint(pop, 10)] = prints
				mu.Unlock()
			}
		}()
	}
	for pop := uint64(1); pop <= uint64(fleetFull.fleets); pop++ {
		jobs <- pop
	}
	close(jobs)
	wg.Wait()
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("fleet_golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFleetGoldenCoversEveryRun checks the committed references hold every
// day a full-size run at any accepted --seconds can step.
func TestFleetGoldenCoversEveryRun(t *testing.T) {
	var g fleetGolden
	if err := json.Unmarshal(fleetGoldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	if g.Machines != fleetFull.machines {
		t.Fatalf("fleet_golden.json records %d machines, the workload runs %d", g.Machines, fleetFull.machines)
	}
	for pop := 1; pop <= fleetFull.fleets; pop++ {
		if got := len(g.Seeds[strconv.Itoa(pop)]); got != goldenDays() {
			t.Errorf("population %d: %d reference days, want %d", pop, got, goldenDays())
		}
	}
}
