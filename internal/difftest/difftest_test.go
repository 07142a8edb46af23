package difftest

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpusgen"
)

// TestDifferentialSmoke runs a short differential sequence through all
// five engine paths, including the HTTP service, the warm sharded
// assessor, and the persistent store with its crash simulation. This is
// the standing trust layer: any engine or persistence refactor that
// breaks byte-identity or the injected-violation oracle fails here (CI
// runs it under -race, covering the snapshot/recovery paths too).
func TestDifferentialSmoke(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	res, err := Run(Config{
		Seed:  26262,
		Steps: 8,
		Params: corpusgen.Params{Modules: 2, FilesPerModule: 3,
			FuncsPerFile: 4, ViolationsPerFile: 2, CUDAFiles: 1},
		HTTP:       true,
		Recover:    true,
		RecoverDir: t.TempDir(),
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 9 {
		t.Errorf("verified steps = %d, want 9", res.Steps)
	}
	if res.Files < 1 || res.Findings == 0 {
		t.Errorf("suspicious final state: %+v", res)
	}
	if res.Compactions == 0 && !res.TornTailChecked {
		t.Errorf("store leg exercised neither compaction nor the torn-tail case: %+v", res)
	}
}

// TestDifferentialNoHTTP covers the three in-process paths across more
// seeds (cheaper without the service round-trips).
func TestDifferentialNoHTTP(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Run(Config{
			Seed:  seed,
			Steps: 6,
			Params: corpusgen.Params{Modules: 2, FilesPerModule: 2,
				FuncsPerFile: 3, ViolationsPerFile: 3, CUDAFiles: 0},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Steps != 7 {
			t.Errorf("seed %d: steps = %d", seed, res.Steps)
		}
	}
}

// TestDifferentialSkewed runs the harness over a deliberately
// shard-imbalanced corpus (one dominant module, a long tail), the
// workload shape the sharded warm path has to keep byte-identical.
func TestDifferentialSkewed(t *testing.T) {
	res, err := Run(Config{
		Seed:  26262,
		Steps: 6,
		Params: corpusgen.Params{Modules: 4, FilesPerModule: 3,
			FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1,
			ModuleSkew: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 7 {
		t.Errorf("steps = %d, want 7", res.Steps)
	}
}

// TestCheckOracleDetectsDrift ensures the oracle is not vacuous: a
// tampered manifest must be rejected.
func TestCheckOracleDetectsDrift(t *testing.T) {
	gen := corpusgen.New(corpusgen.Params{Modules: 1, FilesPerModule: 2,
		FuncsPerFile: 2, ViolationsPerFile: 2, CUDAFiles: 0}, 5)
	res, err := Run(Config{Seed: 5, Steps: 0, Params: corpusgen.Params{
		Modules: 1, FilesPerModule: 2, FuncsPerFile: 2,
		ViolationsPerFile: 2, CUDAFiles: 0}})
	if err != nil || res.Findings == 0 {
		t.Fatalf("baseline run failed: %v (%+v)", err, res)
	}
	man := gen.Manifest()
	for p, es := range man.PerFile {
		if len(es) > 0 {
			man.PerFile[p] = append(es, corpusgen.Expect{Rule: "goto", Path: p, Line: 1})
			break
		}
	}
	if err := CheckOracle(nil, man); err == nil {
		t.Error("empty findings passed a non-empty manifest")
	}
	if !strings.Contains(CheckOracle(nil, man).Error(), "unreported") {
		t.Error("oracle error lacks missing-findings detail")
	}
}
