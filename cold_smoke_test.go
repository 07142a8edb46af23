package repro_test

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/store"
)

// TestColdLatencySmoke is the cold-path regression gate, the companion
// of TestDeltaLatencySmoke: on the fixed-seed 10k-file corpus, a cold
// load+assess and a snapshot restore must not regress more than 2x over
// the baselines recorded in BENCH_pipeline.json under "coldpath" — the
// numbers the []byte lexer fast path, the arena parser, and the lazy
// per-shard snapshot decode are pinned to. It also gates memory
// relative to the restore, twice: once assessed, a cold-loaded assessor
// must hold at most 1.25x the live heap of one restored from its
// snapshot, since both hold facts, not ASTs; and while LoadFileSet runs,
// the live heap the collector finds (runtime/metrics'
// /gc/heap/live:bytes, sampled every millisecond) must stay under 2x
// the restored one, since the load keeps no AST beyond its own file's
// step. Opt-in via COLD_SMOKE=1 (CI sets it) so ordinary test runs stay
// fast.
func TestColdLatencySmoke(t *testing.T) {
	if os.Getenv("COLD_SMOKE") == "" {
		t.Skip("set COLD_SMOKE=1 to run the cold-latency regression gate")
	}

	raw, err := os.ReadFile("BENCH_pipeline.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var bench struct {
		ColdPath struct {
			Cold10kNsPerOp    float64 `json:"cold_10k_ns_per_op"`
			Restore10kNsPerOp float64 `json:"restore_10k_ns_per_op"`
		} `json:"coldpath"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("parse BENCH_pipeline.json: %v", err)
	}
	coldBase := time.Duration(bench.ColdPath.Cold10kNsPerOp)
	restoreBase := time.Duration(bench.ColdPath.Restore10kNsPerOp)
	if coldBase <= 0 || restoreBase <= 0 {
		t.Fatal("BENCH_pipeline.json has no coldpath baselines")
	}

	// The benchmark workload, verbatim: 20 modules × (499 C++ + 1 CUDA),
	// seed 26262.
	gen := corpusgen.New(corpusgen.Params{Modules: 20, FilesPerModule: 499,
		FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}, 26262)

	// Cold leg: LoadFileSet + Findings from nothing. Best of a few runs —
	// the gate asks "can the machine still do it this fast", so
	// scheduling noise must not fail it (see TestDeltaLatencySmoke).
	// Only one cold assessor is live at a time, so the load's peak live
	// heap holds the generator, its sources and the load itself.
	var want int
	coldBest := time.Duration(1<<63 - 1)
	var warm *core.Assessor
	var loadPeak float64
	for i := 0; i < 3; i++ {
		warm = nil
		fs := gen.FileSet()
		start := time.Now()
		a := core.NewAssessor(core.DefaultConfig())
		var err error
		loadPeak = max(loadPeak, peakLiveMBDuring(func() { err = a.LoadFileSet(fs) }))
		if err != nil {
			t.Fatal(err)
		}
		n := len(a.Findings())
		if d := time.Since(start); d < coldBest {
			coldBest = d
		}
		if n == 0 {
			t.Fatal("no findings on cold assess")
		}
		want = n
		warm = a
	}
	coldLimit := 2 * coldBase
	t.Logf("cold 10k load+assess: best %v (baseline %v, limit %v)", coldBest, coldBase, coldLimit)
	// Assess demotes the cold batch's ASTs to fact stubs; measure with
	// only the last cold assessor held.
	warm.Assess()
	coldHeap := liveHeapMB()

	// Restore leg: snapshot the warm state once, then time recovery —
	// lazy snapshot open + warm-state reconstruction + first Findings
	// and Metrics pass, exactly the BenchmarkSnapshotLoad restore shape.
	warm.Metrics()
	st, err := warm.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := d.Corpus("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}
	st = nil // only the last restored assessor is live at the heap read
	restoreBest := time.Duration(1<<63 - 1)
	var restored *core.Assessor
	for i := 0; i < 5; i++ {
		restored = nil
		start := time.Now()
		a, _, err := cs.RecoverReadOnly(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if n := len(a.Findings()); n != want {
			t.Fatalf("restored findings %d, want %d", n, want)
		}
		a.Metrics()
		if d := time.Since(start); d < restoreBest {
			restoreBest = d
		}
		restored = a
	}
	restoreLimit := 2 * restoreBase
	t.Logf("restore 10k: best %v (baseline %v, limit %v)", restoreBest, restoreBase, restoreLimit)
	warm = nil
	restoredHeap := liveHeapMB()
	runtime.KeepAlive(restored)
	heapLimit := 1.25 * restoredHeap
	t.Logf("live heap: cold-loaded after Assess %.1f MB, restored %.1f MB (limit %.1f MB)", coldHeap, restoredHeap, heapLimit)
	if coldHeap > heapLimit {
		t.Errorf("cold-loaded assessor holds %.1f MB live after Assess, over 1.25x the restored %.1f MB", coldHeap, restoredHeap)
	}
	peakLimit := 2 * restoredHeap
	t.Logf("peak live heap while LoadFileSet runs: %.1f MB (limit %.1f MB)", loadPeak, peakLimit)
	if loadPeak >= peakLimit {
		t.Errorf("the cold load's live heap peaked at %.1f MB, not under 2x the restored %.1f MB", loadPeak, restoredHeap)
	}

	if coldBest > coldLimit {
		t.Errorf("cold 10k latency regressed: best %v exceeds 2x recorded baseline %v", coldBest, coldBase)
	}
	if restoreBest > restoreLimit {
		t.Errorf("restore 10k latency regressed: best %v exceeds 2x recorded baseline %v", restoreBest, restoreBase)
	}
}

// peakLiveMBDuring runs fn while a sampler reads the live heap the last
// collection marked (/gc/heap/live:bytes) every millisecond, and returns
// the largest reading in MB, including one taken after fn returns.
func peakLiveMBDuring(fn func()) float64 {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var max uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(done)
	return float64(<-peak) / 1e6
}

// liveHeapMB returns the live heap in MB after two collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
