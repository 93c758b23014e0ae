// Package incidents contains cross-module integration tests that replay
// every production incident listed in §2 of "Cores that don't count",
// end to end, on the simulated substrate:
//
//	go test ./internal/incidents -run Incident -v
package incidents

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kvdb"
	"repro/internal/quarantine"
	"repro/internal/sched"
	"repro/internal/screen"
	"repro/internal/selfcheck"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// TestIncidentSelfInvertingAES replays "a deterministic AES
// mis-computation, which was 'self-inverting': encrypting and decrypting
// on the same core yielded the identity function, but decryption elsewhere
// yielded gibberish."
func TestIncidentSelfInvertingAES(t *testing.T) {
	d := fault.Defect{ID: "aes", Unit: fault.UnitCrypto, Deterministic: true,
		Kind: fault.CorruptPreXORInput, Mask: 1 << 29}
	bad := engine.New(fault.NewCore("bad", xrand.New(1), d))
	other := engine.New(fault.NewCore("other", xrand.New(2)))

	const key = 0x5eed
	plaintexts := []uint64{0, 1, 0xdeadbeef, ^uint64(0)}
	for _, pt := range plaintexts {
		ct := bad.CryptoEncrypt64(pt, key)
		if got := bad.CryptoDecrypt64(ct, key); got != pt {
			t.Fatalf("same-core roundtrip broke for %#x", pt)
		}
		if got := other.CryptoDecrypt64(ct, key); got == pt {
			t.Fatalf("cross-core decrypt of %#x was NOT gibberish", pt)
		}
	}

	// The roundtrip-only library check passes (the trap the incident
	// set); the cross-core verified library refuses the ciphertext.
	v := selfcheck.NewVerifier(bad, other)
	if _, err := v.EncryptBlocks(plaintexts, key); !errors.Is(err, selfcheck.ErrCheckFailed) {
		t.Fatalf("verified library err = %v", err)
	}
}

// TestIncidentLockSemantics replays "violations of lock semantics leading
// to application data corruption and crashes."
func TestIncidentLockSemantics(t *testing.T) {
	d := fault.Defect{ID: "cas", Unit: fault.UnitAtomic, BaseRate: 0.05,
		Kind: fault.CorruptDropUpdate}
	e := engine.New(fault.NewCore("bad", xrand.New(3), d))
	w := corpus.NewLock(8, 64)
	rng := xrand.New(4)
	caught := false
	for i := 0; i < 20 && !caught; i++ {
		res := w.Run(e, rng)
		caught = res.Verdict == corpus.WrongAnswer
	}
	if !caught {
		t.Fatal("dropped-CAS defect never corrupted the locked counter")
	}
}

// TestIncidentGCLosesLiveData replays "corruption affecting garbage
// collection, in a storage system, causing live data to be lost" — and
// shows the double-check mitigation recovering.
func TestIncidentGCLosesLiveData(t *testing.T) {
	build := func() (*storage.Store, map[string]bool) {
		s := storage.NewStore(true)
		healthy := engine.New(fault.NewCore("writer", xrand.New(5)))
		live := map[string]bool{}
		for i := 0; i < 300; i++ {
			k := string(rune('a'+i%26)) + string(rune('0'+i/26))
			live[k] = true
			if err := s.PutFromClient(healthy, k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		return s, live
	}
	gcEngine := func(seed uint64) *engine.Engine {
		d := fault.Defect{ID: "gc", Unit: fault.UnitMul, BaseRate: 0.002,
			Kind: fault.CorruptBitFlip, BitPos: 21}
		return engine.New(fault.NewCore("gc", xrand.New(seed), d))
	}

	s1, live1 := build()
	s1.GC(gcEngine(6), storage.GCOptions{Live: live1})
	if s1.Stats.GCLostLive == 0 {
		t.Fatal("mercurial GC lost no live data")
	}

	s2, live2 := build()
	s2.GC(gcEngine(6), storage.GCOptions{Live: live2, DoubleCheck: true})
	if s2.Stats.GCLostLive >= s1.Stats.GCLostLive {
		t.Fatalf("double-check did not reduce loss: %d vs %d",
			s2.Stats.GCLostLive, s1.Stats.GCLostLive)
	}
}

// TestIncidentReplicaDependentIndex replays "database index corruption
// leading to some queries, depending on which replica (core) serves them,
// being non-deterministically corrupted."
func TestIncidentReplicaDependentIndex(t *testing.T) {
	d := fault.Defect{ID: "idx", Unit: fault.UnitMul, BaseRate: 0.3,
		Kind: fault.CorruptBitFlip, BitPos: 19}
	bad := kvdb.NewReplica("bad", engine.New(fault.NewCore("bad", xrand.New(7), d)))
	good1 := kvdb.NewReplica("g1", engine.New(fault.NewCore("g1", xrand.New(8))))
	good2 := kvdb.NewReplica("g2", engine.New(fault.NewCore("g2", xrand.New(9))))
	db, err := kvdb.New(bad, good1, good2)
	if err != nil {
		t.Fatal(err)
	}
	db.Put("row1", []byte("red"))
	db.Put("row2", []byte("blue"))

	wrong, right := 0, 0
	for i := 0; i < 60; i++ {
		keys := db.QueryByValue([]byte("red"))
		if len(keys) == 1 && keys[0] == "row1" {
			right++
		} else {
			wrong++
		}
	}
	if wrong == 0 || right == 0 {
		t.Fatalf("expected non-deterministic mix, got wrong=%d right=%d", wrong, right)
	}
	// Replica comparison (§6's dual computations) roots the cause.
	caught := false
	for i := 0; i < 10 && !caught; i++ {
		_, err := db.QueryByValueCompared([]byte("red"))
		caught = errors.Is(err, kvdb.ErrDivergent)
	}
	if !caught {
		t.Fatal("replica comparison never exposed the divergence")
	}
}

// TestIncidentStringBitFlips replays "repeated bit-flips in strings, at a
// particular bit position (which stuck out as unlikely to be coding bugs)."
func TestIncidentStringBitFlips(t *testing.T) {
	d := fault.Defect{ID: "str", Unit: fault.UnitVec, BaseRate: 0.02,
		Kind: fault.CorruptBitFlip, BitPos: 42}
	e := engine.New(fault.NewCore("bad", xrand.New(10), d))
	src := make([]byte, 8192)
	dst := make([]byte, 8192)
	e.Copy(dst, src)
	positions := map[uint]int{}
	for i := 0; i+8 <= len(dst); i += 8 {
		var w uint64
		for b := 0; b < 8; b++ {
			w |= uint64(dst[i+b]) << (8 * uint(b))
		}
		for bit := uint(0); bit < 64; bit++ {
			if w&(1<<bit) != 0 {
				positions[bit]++
			}
		}
	}
	if len(positions) != 1 {
		t.Fatalf("flips at %d positions, want exactly one: %v", len(positions), positions)
	}
	if positions[42] == 0 {
		t.Fatalf("flips not at the defect's position: %v", positions)
	}
	if positions[42] < 2 {
		t.Fatal("defect did not repeat")
	}
}

// TestIncidentKernelStateCorruption replays "corruption of kernel state
// resulting in process and kernel crashes and application malfunctions" —
// a wrong-address store smears a neighbouring structure, later observed as
// either a crash (trap) or a wrong answer.
func TestIncidentKernelStateCorruption(t *testing.T) {
	d := fault.Defect{ID: "lsu", Unit: fault.UnitLSU, BaseRate: 0.005,
		Kind: fault.CorruptOffByOne, Delta: 16}
	e := engine.New(fault.NewCore("bad", xrand.New(11), d))
	w := corpus.NewMem(4096)
	rng := xrand.New(12)
	sawWrong, sawTrap := false, false
	for i := 0; i < 40 && !(sawWrong && sawTrap); i++ {
		switch w.Run(e, rng).Verdict {
		case corpus.WrongAnswer:
			sawWrong = true
		case corpus.Trapped:
			sawTrap = true
		}
	}
	if !sawWrong {
		t.Fatal("no silent corruption observed")
	}
	// Traps depend on hitting the boundary; not guaranteed at this size,
	// so only assert when observed — the mix is the §2 observation that
	// "defective cores appear to exhibit both wrong results and
	// exceptions".
	t.Logf("observed wrong answers; traps observed: %v", sawTrap)
}

// TestIncidentPipelineEndToEnd wires a full detect→confess→quarantine loop
// around the §1 pipeline incident: heavy use of a rarely-used unit starts
// corrupting results on one machine; the pipeline's end-to-end checks feed
// the report service until the core is removed from service.
func TestIncidentPipelineEndToEnd(t *testing.T) {
	const machines = 4
	const coresPer = 4
	defective := fault.NewCore("m2/c1", xrand.New(13), fault.Defect{
		ID: "vec", Unit: fault.UnitVec, BaseRate: 0.02,
		Kind: fault.CorruptBitFlip, BitPos: 7})

	cluster := sched.NewCluster()
	for i := 0; i < machines; i++ {
		if _, err := cluster.AddMachine([]string{"m0", "m1", "m2", "m3"}[i], coresPer); err != nil {
			t.Fatal(err)
		}
	}
	tracker := detect.NewShardedTracker(coresPer, 0)
	rng := xrand.New(14)

	// Production: batches hashed through each (machine, core); only
	// m2/core1 uses the defective engine.
	for batch := 0; batch < 3000; batch++ {
		machine := []string{"m0", "m1", "m2", "m3"}[batch%machines]
		coreIdx := (batch / machines) % coresPer
		var e *engine.Engine
		if machine == "m2" && coreIdx == 1 {
			e = engine.New(defective)
		} else {
			e = engine.New(fault.NewCore("h", rng))
		}
		rec := make([]byte, 64)
		rng.Bytes(rec)
		out := make([]byte, 64)
		e.Copy(out, rec)
		if !bytes.Equal(out, rec) { // end-to-end check
			tracker.Add(detect.Signal{Machine: machine, Core: coreIdx,
				Kind: detect.SigAppError})
		}
	}

	suspects := tracker.Suspects()
	if len(suspects) == 0 {
		t.Fatal("no suspects nominated")
	}
	top := suspects[0]
	if top.Machine != "m2" || top.Core != 1 {
		t.Fatalf("wrong suspect: %+v", top)
	}

	mgr := quarantine.NewManager(cluster, quarantine.Policy{
		Mode: quarantine.CoreRemoval, RequireConfession: true})
	rec, err := mgr.Handle(top, 0, func(cfg screen.Config) detect.Confession {
		return detect.Confess(defective, cfg, xrand.New(15))
	})
	if err != nil || rec == nil {
		t.Fatalf("quarantine failed: rec=%v err=%v", rec, err)
	}
	if !rec.Confessed {
		t.Fatal("confession screen failed to reproduce")
	}
	if cluster.Capacity().Offline != 1 {
		t.Fatal("core not taken offline")
	}
}
