// Pipeline reproduces the paper's opening incident (§1): a massive-scale
// data-analysis pipeline starts giving wrong answers after an innocuous
// library change. The change itself is correct, but it makes servers use
// otherwise rarely-used instructions — and a small subset of machines is
// repeatedly responsible for the corrupt results.
//
// Here, a fleet of worker machines compresses and checksums record
// batches. Version 1 of the "library" hashes records with plain ALU
// arithmetic; version 2 switches the inner loop to the vector/copy unit
// for speed. One worker core has a latent vector-unit defect, so v2
// suddenly starts producing corrupt batches — only on that machine.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

const (
	workers = 8
	batches = 1600
	recordN = 256
)

// hashV1 fingerprints a record using ALU multiply-xor only.
func hashV1(e *engine.Engine, rec []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range rec {
		h = e.Xor64(h, uint64(b))
		h = e.Mul64(h, 1099511628211)
	}
	return h
}

// hashV2 is the "innocuous library change": it first moves the record
// through the (faster) bulk-copy path, then hashes — heavier use of the
// rarely-exercised vector unit.
func hashV2(e *engine.Engine, rec []byte, scratch []byte) uint64 {
	e.Copy(scratch[:len(rec)], rec)
	h := uint64(14695981039346656037)
	for _, b := range scratch[:len(rec)] {
		h = e.Xor64(h, uint64(b))
		h = e.Mul64(h, 1099511628211)
	}
	return h
}

func main() {
	// Worker 5, core 2 carries a vector-unit defect. Under v1 it is
	// completely invisible: the pipeline never touches that unit.
	const coresPer = 4
	machines := make([]*core.Machine, workers)
	for i := range machines {
		var opts []core.Option
		if i == 5 {
			opts = append(opts, core.WithDefect(2, fault.Defect{
				Unit: fault.UnitVec, BaseRate: 5e-3,
				Kind: fault.CorruptBitFlip, BitPos: 9,
			}))
		}
		m, err := core.NewMachine(fmt.Sprintf("worker%d", i), coresPer, uint64(i+1), opts...)
		if err != nil {
			log.Fatal(err)
		}
		machines[i] = m
	}

	rng := xrand.New(99)
	tracker := detect.NewShardedTracker(coresPer, 0)
	scratch := make([]byte, recordN)

	runVersion := func(name string, v2 bool) {
		badBatches := map[int]int{}
		for b := 0; b < batches; b++ {
			rec := make([]byte, recordN)
			rng.Bytes(rec)
			w := b % workers
			c := (b / workers) % coresPer
			e := machines[w].Engine(c)
			var got uint64
			if v2 {
				got = hashV2(e, rec, scratch)
			} else {
				got = hashV1(e, rec)
			}
			// End-to-end check: the client recomputes the fingerprint
			// from its own copy (golden). Mismatch = detected CEE.
			want := uint64(14695981039346656037)
			for _, c := range rec {
				want ^= uint64(c)
				want *= 1099511628211
			}
			_ = ecc.CRC32CGolden(rec) // the batch checksum shipped alongside
			if got != want {
				badBatches[w]++
				tracker.Add(detect.Signal{Machine: fmt.Sprintf("worker%d", w),
					Core: c, Kind: detect.SigAppError})
			}
		}
		fmt.Printf("%s: %d batches, corrupt per worker: %v\n", name, batches, badBatches)
	}

	fmt.Println("== library v1 (ALU-only inner loop) ==")
	runVersion("v1", false)
	fmt.Println("\n== library v2 (vector/copy inner loop — the innocuous change) ==")
	runVersion("v2", true)

	fmt.Println("\ninvestigation fingers a surprising cause:")
	for _, s := range tracker.Suspects() {
		fmt.Printf("  suspect %s/core%d: %d corrupt batches, concentration p-value %.1e\n",
			s.Machine, s.Core, s.Reports, s.PValue)
	}
	fmt.Println("the change was correct; the hardware on one machine was not (§1)")
}
