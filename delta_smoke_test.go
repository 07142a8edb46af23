package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/srcfile"
)

// TestDeltaLatencySmoke is the delta-latency regression gate: on the
// fixed-seed 10k-file corpus (the BenchmarkGeneratedScale workload), a
// steady-state warm 1-file delta must not regress more than 2x over the
// baseline recorded in BENCH_pipeline.json under "sharded". The gate is
// opt-in via DELTA_SMOKE=1 (CI sets it) so ordinary test runs stay fast
// and un-flaky on loaded machines.
func TestDeltaLatencySmoke(t *testing.T) {
	if os.Getenv("DELTA_SMOKE") == "" {
		t.Skip("set DELTA_SMOKE=1 to run the delta-latency regression gate")
	}

	raw, err := os.ReadFile("BENCH_pipeline.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var bench struct {
		Sharded struct {
			Delta1File10kNsPerOp float64 `json:"delta_1file_10k_ns_per_op"`
		} `json:"sharded"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("parse BENCH_pipeline.json: %v", err)
	}
	baseline := time.Duration(bench.Sharded.Delta1File10kNsPerOp)
	if baseline <= 0 {
		t.Fatal("BENCH_pipeline.json has no sharded.delta_1file_10k_ns_per_op baseline")
	}

	// The benchmark workload, verbatim: 20 modules × (499 C++ + 1 CUDA),
	// seed 26262, steady-state edits of one mid-corpus file.
	gen := corpusgen.New(corpusgen.Params{Modules: 20, FilesPerModule: 499,
		FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}, 26262)
	a := core.NewAssessor(core.DefaultConfig())
	if err := a.LoadFileSet(gen.FileSet()); err != nil {
		t.Fatal(err)
	}
	a.Findings()
	victim := gen.Paths()[len(gen.Paths())/2]
	base := gen.Source(victim)
	variant := func(i int) string {
		if i%2 == 0 {
			return base + "\nfloat ScaleProbe(float x, int m) { if (m > 1) { x = x + 1.0f; } return x; }\n"
		}
		return base + "\nfloat ScaleProbe(float x, int m) { while (x > 0.5f * m) { x = x - 1.0f; } return x; }\n"
	}
	apply := func(i int) {
		if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
			Path: victim, Src: variant(i)}}}); err != nil {
			t.Fatal(err)
		}
		if len(a.Findings()) == 0 {
			t.Fatal("no findings after delta")
		}
	}
	// Warm-up: the first probe appearance defines a new name (no other
	// file reads it, so one file is re-checked), and a few more
	// rounds settle allocator and cache state into the steady state the
	// benchmark measures.
	for i := 1; i < 6; i++ {
		apply(i)
	}

	// Take the best of several runs: the gate asks "can the machine
	// still do it this fast", so scheduling noise must not fail it.
	best := time.Duration(1<<63 - 1)
	for i := 6; i < 18; i++ {
		start := time.Now()
		apply(i)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	limit := 2 * baseline
	t.Logf("warm 1-file delta on 10k files: best %v (baseline %v, limit %v)", best, baseline, limit)
	if best > limit {
		t.Fatalf("warm delta latency regressed: best %v exceeds 2x recorded baseline %v", best, baseline)
	}

	// Name-changing delta classes on the same corpus walk only the files
	// they parse: the edited file alone, and nothing for a removal. These
	// rows pin counts, not timings.
	other := gen.Paths()[len(gen.Paths())/3]
	var mi, ord int
	if _, err := fmt.Sscanf(other[strings.LastIndexByte(other, '_')+1:], "m%df%d.cc", &mi, &ord); err != nil {
		t.Fatalf("parse generated path %s: %v", other, err)
	}
	slug, fresh := fmt.Sprintf("M%dX%d", mi, ord), fmt.Sprintf("M%dX%d", mi, ord+1000)
	renamed := strings.ReplaceAll(gen.Source(other), slug+"N0(", slug+"R0(")
	copySrc := strings.ReplaceAll(gen.Source(other), slug, fresh)
	copySrc = strings.ReplaceAll(copySrc, strings.ToLower(slug), strings.ToLower(fresh))
	copyPath := strings.Replace(other, fmt.Sprintf("f%03d.cc", ord), fmt.Sprintf("f%03d.cc", ord+1000), 1)
	for _, row := range []struct {
		name  string
		delta core.Delta
		want  int
	}{
		{"rename", core.Delta{Changed: []*srcfile.File{{Path: other, Src: renamed}}}, 1},
		{"add", core.Delta{Changed: []*srcfile.File{{Path: copyPath, Src: copySrc}}}, 1},
		{"remove", core.Delta{Removed: []string{copyPath}}, 0},
	} {
		start := time.Now()
		if _, err := a.ApplyDelta(row.delta); err != nil {
			t.Fatal(err)
		}
		a.Findings()
		t.Logf("%s delta on 10k files: %v, %d files re-checked", row.name, time.Since(start), a.RuleFilesChecked())
		if got := a.RuleFilesChecked(); got != row.want {
			t.Errorf("%s delta re-checked %d files, want %d", row.name, got, row.want)
		}
	}
}
