// Command adfuzz is the differential engine fuzzer: it generates a
// seeded Apollo-shaped corpus with injected, ground-truth-labeled rule
// violations (internal/corpusgen), applies a random sequence of file
// deltas (add / edit / remove), and at every step asserts that the
// sequential reference engine, a cold run of the sharded rule engine,
// the warm sharded assessor, and the adserve HTTP service all produce
// byte-identical findings that exactly match the injected-violation
// manifest. A -skew above zero generates a shard-imbalanced corpus
// (zipf-ish module fan) to exercise the sharded warm path under the
// layouts it exists for.
//
// Usage:
//
//	adfuzz [-seed 1] [-steps 50] [-modules 4] [-files 4] [-funcs 5]
//	       [-violations 3] [-cuda 1] [-skew 0] [-crossfile] [-http=true]
//	       [-recover] [-batch N] [-v]
//
// -recover adds the persistent-store leg: every delta is journaled into
// a temporary data directory, every step recovers a fifth state from
// disk (snapshot + journal replay) and byte-compares findings, report,
// shard stats, and its snapshot encode (which copies the shards still
// sealed since the restore) against the warm assessor's, compaction
// fires mid-run, and the run ends with a
// truncated-journal crash simulation.
//
// -crossfile adds the cross-file mutation kinds: files that call
// another file's functions, shadow its globals, and close two-file call
// cycles, plus renames, void flips, and removals of those targets, with
// the manifest kept exact for every dependent file.
//
// -batch N adds the batched-delta leg: a second warm assessor commits
// the same mutation sequence N deltas at a time through ApplyDeltaBatch
// and must byte-match the one-at-a-time path at every flush boundary.
//
// A run is a pure function of its flags: re-running with the same seed
// replays the identical corpus and mutation sequence, so a failure
// printed by one run is reproduced exactly by copying its command line.
// Exit status: 0 when every step verified, 1 on divergence, 2 on bad
// flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/corpusgen"
	"repro/internal/difftest"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "adfuzz: %v\n", err)
		os.Exit(code)
	}
}

func run() (int, error) {
	seedFlag := flag.Int64("seed", 1, "master seed (replays deterministically)")
	stepsFlag := flag.Int("steps", 50, "number of mutation steps")
	modulesFlag := flag.Int("modules", 4, "modules in the generated corpus")
	filesFlag := flag.Int("files", 4, "initial C++ files per module")
	funcsFlag := flag.Int("funcs", 5, "clean filler functions per file")
	violFlag := flag.Int("violations", 3, "injected violations per file")
	cudaFlag := flag.Int("cuda", 1, "CUDA files per module")
	skewFlag := flag.Float64("skew", 0, "zipf-ish module-size skew (0 = uniform)")
	crossFlag := flag.Bool("crossfile", false, "add mutations that create and break cross-file reads")
	httpFlag := flag.Bool("http", true, "include the adserve HTTP path")
	recoverFlag := flag.Bool("recover", false, "include the persistent-store crash-recovery path")
	batchFlag := flag.Int("batch", 0, "include the batched-delta path, flushing ApplyDeltaBatch every N steps (0 = off)")
	verboseFlag := flag.Bool("v", false, "log every step")
	flag.Parse()

	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	if *stepsFlag < 0 {
		return 2, fmt.Errorf("-steps must be >= 0 (got %d)", *stepsFlag)
	}
	if *modulesFlag <= 0 || *filesFlag <= 0 {
		return 2, fmt.Errorf("-modules and -files must be positive")
	}
	if *funcsFlag < 0 || *violFlag < 0 || *cudaFlag < 0 {
		return 2, fmt.Errorf("-funcs, -violations, and -cuda must be >= 0")
	}
	if *skewFlag < 0 {
		return 2, fmt.Errorf("-skew must be >= 0 (got %g)", *skewFlag)
	}
	if *batchFlag < 0 {
		return 2, fmt.Errorf("-batch must be >= 0 (got %d)", *batchFlag)
	}

	cfg := difftest.Config{
		Seed:  *seedFlag,
		Steps: *stepsFlag,
		Params: corpusgen.Params{
			Modules:           *modulesFlag,
			FilesPerModule:    *filesFlag,
			FuncsPerFile:      *funcsFlag,
			ViolationsPerFile: *violFlag,
			CUDAFiles:         *cudaFlag,
			ModuleSkew:        *skewFlag,
			CrossFile:         *crossFlag,
		},
		HTTP:    *httpFlag,
		Recover: *recoverFlag,
		Batch:   *batchFlag,
	}
	if *verboseFlag {
		cfg.Logf = func(format string, args ...interface{}) {
			fmt.Printf(format+"\n", args...)
		}
	}

	start := time.Now()
	res, err := difftest.Run(cfg)
	if err != nil {
		return 1, fmt.Errorf("divergence (reproduce with -seed %d -steps %d): %v",
			*seedFlag, *stepsFlag, err)
	}
	paths := 3
	if *httpFlag {
		paths++
	}
	if *recoverFlag {
		paths++
	}
	if *batchFlag > 0 {
		paths++
	}
	fmt.Printf("adfuzz: OK — %d steps verified in %v\n", res.Steps, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  final corpus: %d files, %d findings (all byte-identical across %d paths, oracle-exact)\n",
		res.Files, res.Findings, paths)
	fmt.Printf("  mutations: %d add, %d edit, %d remove\n",
		res.Mutations[corpusgen.MutAdd], res.Mutations[corpusgen.MutEdit],
		res.Mutations[corpusgen.MutRemove])
	if *crossFlag {
		fmt.Printf("  cross-file: %d target, %d reader, %d rename, %d flip, %d remove\n",
			res.Mutations[corpusgen.MutXTarget], res.Mutations[corpusgen.MutXReader],
			res.Mutations[corpusgen.MutXRename], res.Mutations[corpusgen.MutXFlip],
			res.Mutations[corpusgen.MutXRemove])
	}
	if *recoverFlag {
		torn := "torn-tail crash simulation skipped (final step left no journal tail)"
		if res.TornTailChecked {
			torn = "torn-tail crash simulation passed"
		}
		fmt.Printf("  store: %d compactions, %s\n", res.Compactions, torn)
	}
	if *batchFlag > 0 {
		fmt.Printf("  batch: %d ApplyDeltaBatch flushes of up to %d deltas, all byte-identical\n",
			res.BatchFlushes, *batchFlag)
	}
	return 0, nil
}
