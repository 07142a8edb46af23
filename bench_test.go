// Benchmark harness: one benchmark per paper table and figure (the
// regeneration targets indexed in DESIGN.md), plus the ablation benches
// for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/apollocorpus"
	"repro/internal/artifact"
	"repro/internal/brookauto"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/cinterp"
	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/coverage"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/srcfile"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/testgen"
	"repro/internal/yolo"
)

var (
	benchOnce  sync.Once
	benchFS    *srcfile.FileSet
	benchUnits map[string]*ccast.TranslationUnit
)

func benchCorpus(b *testing.B) map[string]*ccast.TranslationUnit {
	b.Helper()
	benchOnce.Do(func() {
		benchFS = apollocorpus.GenerateDefault()
		var errs []*ccparse.Error
		benchUnits, errs = ccparse.ParseAll(benchFS, ccparse.Options{})
		if len(errs) > 0 {
			b.Fatalf("corpus parse errors: %v", errs[0])
		}
	})
	return benchUnits
}

// rulesFor selects the checker subset evidencing one ISO table.
func rulesFor(table string) []rules.Rule {
	switch table {
	case "coding":
		return []rules.Rule{
			&rules.ComplexityRule{Threshold: 10}, &rules.LanguageSubsetRule{},
			&rules.CastRule{}, &rules.DefensiveRule{}, &rules.GlobalVarRule{},
			&rules.StyleRule{}, &rules.NamingRule{},
		}
	case "unit":
		return []rules.Rule{
			&rules.MultiExitRule{}, &rules.DynamicMemoryRule{},
			&rules.UninitializedRule{}, &rules.ShadowRule{},
			&rules.GlobalVarRule{}, &rules.PointerRule{},
			&rules.ImplicitConversionRule{}, &rules.GotoRule{},
			&rules.RecursionRule{},
		}
	default:
		return rules.DefaultRules()
	}
}

// ---------------------------------------------------------------------------
// Pipeline (BENCH_pipeline.json records these before/after engine changes)

// BenchmarkAssess measures the core assessment pipeline stage by stage:
// frontend parse, rule engine, metrics, and the full end-to-end run that
// AssessDefaultCorpus performs. CI runs this with -benchtime=1x as a
// smoke test; BENCH_pipeline.json tracks the recorded trajectory.
func BenchmarkAssess(b *testing.B) {
	b.Run("parse", func(b *testing.B) {
		benchCorpus(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, errs := ccparse.ParseAll(benchFS, ccparse.Options{})
			if len(errs) > 0 {
				b.Fatal(errs[0])
			}
		}
	})
	b.Run("rules", func(b *testing.B) {
		units := benchCorpus(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := rules.NewContext(units)
			if len(rules.Run(ctx, rules.DefaultRules())) == 0 {
				b.Fatal("no findings")
			}
		}
	})
	b.Run("metrics", func(b *testing.B) {
		units := benchCorpus(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fw := metrics.AnalyzeIndexed(artifact.Build(units))
			arch := metrics.AnalyzeArchIndexed(artifact.Build(units))
			if fw.TotalFunc == 0 || len(arch) == 0 {
				b.Fatal("empty metrics")
			}
		}
	})
	b.Run("end-to-end", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := core.NewAssessor(core.DefaultConfig())
			if err := a.LoadDefaultCorpus(); err != nil {
				b.Fatal(err)
			}
			as := a.Assess()
			if len(as.Observations) != 14 {
				b.Fatal("observations")
			}
		}
	})
}

// BenchmarkDeltaAssess measures warm re-assessment after a 1-file edit
// against a cold full run over the same corpus — the incremental
// engine's headline number (BENCH_pipeline.json tracks the ratio). Both
// sub-benchmarks start from an already-parsed corpus: "full" reloads and
// re-assesses everything, "delta-1file" applies a single-file edit via
// ApplyDelta and re-assesses warm.
func BenchmarkDeltaAssess(b *testing.B) {
	makeCorpus := func() *srcfile.FileSet {
		return apollocorpus.GenerateDefault()
	}
	// Two body variants so every iteration is a real edit (identical
	// content would take the unchanged fast path).
	variant := func(i int) string {
		if i%2 == 0 {
			return "\nint delta_bench_probe(int x) { if (x > 1) { return x; } return -x; }\n"
		}
		return "\nint delta_bench_probe(int x) { while (x > 1) { x--; } return x; }\n"
	}

	b.Run("full", func(b *testing.B) {
		fs := makeCorpus()
		victim := fs.Files()[len(fs.Files())/2]
		base := victim.Src
		for i := 0; i < b.N; i++ {
			victim.Src = base + variant(i)
			a := core.NewAssessor(core.DefaultConfig())
			if err := a.LoadFileSet(fs); err != nil {
				b.Fatal(err)
			}
			if as := a.Assess(); len(as.Observations) != 14 {
				b.Fatal("observations")
			}
		}
	})

	b.Run("delta-1file", func(b *testing.B) {
		fs := makeCorpus()
		victim := fs.Files()[len(fs.Files())/2]
		base := victim.Src
		a := core.NewAssessor(core.DefaultConfig())
		if err := a.LoadFileSet(fs); err != nil {
			b.Fatal(err)
		}
		a.Assess()
		// Warm-up edit: the probe function's first appearance changes the
		// cross-file environment and forces one full rule re-check; apply
		// it outside the timed region so iterations measure steady state.
		if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
			Path: victim.Path, Src: base + variant(1),
		}}}); err != nil {
			b.Fatal(err)
		}
		a.Assess()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
				Path: victim.Path, Src: base + variant(i),
			}}})
			if err != nil {
				b.Fatal(err)
			}
			if res.Parsed != 1 {
				b.Fatalf("delta parsed %d files", res.Parsed)
			}
			if as := a.Assess(); len(as.Observations) != 14 {
				b.Fatal("observations")
			}
		}
	})
}

// BenchmarkBatchedDelta measures the batched commit path: editing k
// files as one ApplyDeltaBatch (one prepare, one journal-shaped commit,
// one projection invalidation, one warm re-assessment) against the same
// k edits applied and re-assessed one delta at a time — the serving
// path's cost for a CI bot that ships a whole commit per /delta request
// versus one request per file. BENCH_pipeline.json records the ratio
// under "parallel".
func BenchmarkBatchedDelta(b *testing.B) {
	const k = 16
	variant := func(i, j int) string {
		if (i+j)%2 == 0 {
			return "\nint batch_probe(int x) { if (x > 1) { return x; } return -x; }\n"
		}
		return "\nint batch_probe(int x) { while (x > 1) { x--; } return x; }\n"
	}
	// k victims spread across the corpus so the batch dirties several
	// shards, like a real multi-module commit.
	setup := func(b *testing.B) (*core.Assessor, []*srcfile.File, []string) {
		fs := apollocorpus.GenerateDefault()
		files := fs.Files()
		victims := make([]*srcfile.File, k)
		bases := make([]string, k)
		for j := 0; j < k; j++ {
			victims[j] = files[(j*len(files))/k]
			bases[j] = victims[j].Src
		}
		a := core.NewAssessor(core.DefaultConfig())
		if err := a.LoadFileSet(fs); err != nil {
			b.Fatal(err)
		}
		a.Assess()
		// Warm-up: the probes' first appearance changes the cross-file
		// environment and forces one full re-check; keep it untimed.
		var warm []core.Delta
		for j := 0; j < k; j++ {
			warm = append(warm, core.Delta{Changed: []*srcfile.File{{
				Path: victims[j].Path, Src: bases[j] + variant(1, j),
			}}})
		}
		if _, err := a.ApplyDeltaBatch(warm); err != nil {
			b.Fatal(err)
		}
		a.Assess()
		return a, victims, bases
	}

	b.Run("sequential-16x1", func(b *testing.B) {
		a, victims, bases := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
					Path: victims[j].Path, Src: bases[j] + variant(i, j),
				}}}); err != nil {
					b.Fatal(err)
				}
				if len(a.Findings()) == 0 {
					b.Fatal("no findings")
				}
			}
		}
	})

	b.Run("batched-1x16", func(b *testing.B) {
		a, victims, bases := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds := make([]core.Delta, k)
			for j := 0; j < k; j++ {
				ds[j] = core.Delta{Changed: []*srcfile.File{{
					Path: victims[j].Path, Src: bases[j] + variant(i, j),
				}}}
			}
			res, err := a.ApplyDeltaBatch(ds)
			if err != nil {
				b.Fatal(err)
			}
			if res.Parsed != k {
				b.Fatalf("batch parsed %d files, want %d", res.Parsed, k)
			}
			if len(a.Findings()) == 0 {
				b.Fatal("no findings")
			}
		}
	})
}

// BenchmarkGeneratedScale measures the pipeline on corpusgen-generated
// trees far beyond the calibrated Apollo corpus: 1k and 10k files with
// injected ground-truth violations (the first at-scale numbers in
// BENCH_pipeline.json). "cold" is LoadFileSet + full Assess; the
// "delta-1file" variant applies a warm one-file edit to the 10k corpus
// and re-assesses, which is the serving path's steady state at scale.
func BenchmarkGeneratedScale(b *testing.B) {
	scales := []struct {
		name   string
		params corpusgen.Params
	}{
		// 10 modules × (99 C++ + 1 CUDA) = 1,000 files.
		{"1k-files-cold", corpusgen.Params{Modules: 10, FilesPerModule: 99,
			FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}},
		// 20 modules × (499 C++ + 1 CUDA) = 10,000 files.
		{"10k-files-cold", corpusgen.Params{Modules: 20, FilesPerModule: 499,
			FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}},
	}
	for _, sc := range scales {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			gen := corpusgen.New(sc.params, 26262)
			fs := gen.FileSet()
			bytes := 0
			for _, f := range fs.Files() {
				bytes += len(f.Src)
			}
			want := gen.Manifest().Total() // hoisted: Manifest() deep-copies
			b.SetBytes(int64(bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := core.NewAssessor(core.DefaultConfig())
				if err := a.LoadFileSet(gen.FileSet()); err != nil {
					b.Fatal(err)
				}
				if n := len(a.Findings()); n < want {
					b.Fatalf("findings %d < manifest %d", n, want)
				}
			}
		})
	}

	// Parse-only at 10k files: isolates the frontend share of the cold
	// path (the []byte lexer fast path, shared interning, and arena
	// allocation show up here first; BENCH_pipeline.json "coldpath"
	// records the trajectory).
	b.Run("10k-files-parse", func(b *testing.B) {
		gen := corpusgen.New(corpusgen.Params{Modules: 20, FilesPerModule: 499,
			FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}, 26262)
		fs := gen.FileSet()
		bytes := 0
		for _, f := range fs.Files() {
			bytes += len(f.Src)
		}
		b.SetBytes(int64(bytes))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			units, errs := ccparse.ParseAll(fs, ccparse.Options{})
			if len(errs) > 0 {
				b.Fatal(errs[0])
			}
			if len(units) != fs.Len() {
				b.Fatal("missing units")
			}
		}
	})

	b.Run("10k-files-delta-1file", func(b *testing.B) {
		gen := corpusgen.New(corpusgen.Params{Modules: 20, FilesPerModule: 499,
			FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}, 26262)
		a := core.NewAssessor(core.DefaultConfig())
		if err := a.LoadFileSet(gen.FileSet()); err != nil {
			b.Fatal(err)
		}
		a.Findings()
		victim := gen.Paths()[len(gen.Paths())/2]
		base := gen.Source(victim)
		// Both variants define the same probe name so the cross-file
		// environment signature stays stable and iterations measure the
		// steady-state incremental path.
		variant := func(i int) string {
			if i%2 == 0 {
				return base + "\nfloat ScaleProbe(float x, int m) { if (m > 1) { x = x + 1.0f; } return x; }\n"
			}
			return base + "\nfloat ScaleProbe(float x, int m) { while (x > 0.5f * m) { x = x - 1.0f; } return x; }\n"
		}
		// Warm-up: the probe's first appearance changes the cross-file
		// environment signature and forces one full re-check.
		if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
			Path: victim, Src: variant(1)}}}); err != nil {
			b.Fatal(err)
		}
		a.Findings()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
				Path: victim, Src: variant(i)}}}); err != nil {
				b.Fatal(err)
			}
			if len(a.Findings()) == 0 {
				b.Fatal("no findings")
			}
		}
	})
}

// BenchmarkManyNameDelta measures deltas that move many names at once,
// on the seed-26262 10k-file corpusgen tree: each op renames the first
// filler function of n C++ files in one delta (two names move per
// file) and assesses, for n = 1, 16, 128 and 512, on a cold-loaded
// assessor and on one restored from its exported state. The rule engine
// walks exactly the renamed files; files/op reports that count, which
// latency follows. Each assessor takes one untimed rename first, which
// gives its on-cycle names their components. The first rows time that
// first rename (n = 1) on a freshly loaded, assessed assessor, beside
// files-1's later ones; each of their ops loads a fresh assessor
// untimed, so they run only under -benchtime Nx.
func BenchmarkManyNameDelta(b *testing.B) {
	gen := corpusgen.New(corpusgen.Params{Modules: 20, FilesPerModule: 499,
		FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}, 26262)
	var cc []string
	for _, p := range gen.Paths() {
		if strings.HasSuffix(p, ".cc") {
			cc = append(cc, p)
		}
	}
	// rename toggles the first filler function of each file between its
	// generated name (…M<m>X<f>N0) and a renamed one (…M<m>X<f>R0).
	rename := func(a *core.Assessor, paths []string) core.Delta {
		var d core.Delta
		for _, p := range paths {
			var mi, ord int
			fmt.Sscanf(p[strings.LastIndexByte(p, '_')+1:], "m%df%d.cc", &mi, &ord)
			from, to := fmt.Sprintf("M%dX%dN0(", mi, ord), fmt.Sprintf("M%dX%dR0(", mi, ord)
			src := a.FileSet().Lookup(p).Src
			if !strings.Contains(src, from) {
				from, to = to, from
			}
			d.Changed = append(d.Changed, &srcfile.File{Path: p, Src: strings.ReplaceAll(src, from, to)})
		}
		return d
	}
	warm := func(a *core.Assessor) *core.Assessor {
		a.Assess()
		if _, err := a.ApplyDelta(rename(a, cc[:1])); err != nil {
			b.Fatal(err)
		}
		a.Assess()
		return a
	}
	cold := core.NewAssessor(core.DefaultConfig())
	if err := cold.LoadFileSet(gen.FileSet()); err != nil {
		b.Fatal(err)
	}
	st, err := warm(cold).ExportState()
	if err != nil {
		b.Fatal(err)
	}
	restored, err := core.RestoreAssessorFrom(core.DefaultConfig(), st)
	if err != nil {
		b.Fatal(err)
	}
	warm(restored)

	for _, side := range []struct {
		name  string
		a     *core.Assessor
		fresh func() *core.Assessor
	}{{"cold", cold, func() *core.Assessor {
		a := core.NewAssessor(core.DefaultConfig())
		if err := a.LoadFileSet(gen.FileSet()); err != nil {
			b.Fatal(err)
		}
		a.Assess()
		return a
	}}, {"restored", restored, func() *core.Assessor {
		a, err := core.RestoreAssessorFrom(core.DefaultConfig(), st)
		if err != nil {
			b.Fatal(err)
		}
		a.Assess()
		return a
	}}} {
		b.Run(side.name+"/first", func(b *testing.B) {
			if !strings.HasSuffix(flag.Lookup("test.benchtime").Value.String(), "x") {
				b.Skip("each op loads a fresh assessor: run with -benchtime Nx")
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := side.fresh()
				b.StartTimer()
				if _, err := a.ApplyDelta(rename(a, cc[:1])); err != nil {
					b.Fatal(err)
				}
				if as := a.Assess(); len(as.Observations) != 14 {
					b.Fatal("observations")
				}
			}
		})
		for _, n := range []int{1, 16, 128, 512} {
			paths := make([]string, n)
			for k := range paths {
				paths[k] = cc[k*len(cc)/n]
			}
			b.Run(fmt.Sprintf("%s/files-%d", side.name, n), func(b *testing.B) {
				a := side.a
				checked := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := a.ApplyDelta(rename(a, paths))
					if err != nil {
						b.Fatal(err)
					}
					if res.Parsed != n {
						b.Fatalf("delta parsed %d files, want %d", res.Parsed, n)
					}
					if as := a.Assess(); len(as.Observations) != 14 {
						b.Fatal("observations")
					}
					checked += a.RuleFilesChecked()
				}
				b.ReportMetric(float64(checked)/float64(b.N), "files/op")
			})
		}
	}
}

// BenchmarkSnapshotLoad measures the persistent corpus store
// (internal/store) on the seed-26262 10k-file corpus, the scale the
// acceptance numbers in BENCH_pipeline.json ("store") are recorded at:
//
//   - snapshot-write: encode + atomic write of the full warm state;
//   - restore: snapshot load + warm-state reconstruction + the first
//     Findings/Metrics pass — the boot path, to be compared against the
//     10k-files-cold parse+assess number;
//   - restore-delta-1file: the steady-state 1-file delta on a restored
//     assessor. The restored caches must come back warm: this number is
//     directly comparable to 10k-files-delta-1file on a never-restarted
//     assessor.
func BenchmarkSnapshotLoad(b *testing.B) {
	params := corpusgen.Params{Modules: 20, FilesPerModule: 499,
		FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}
	gen := corpusgen.New(params, 26262)
	warm := core.NewAssessor(core.DefaultConfig())
	if err := warm.LoadFileSet(gen.FileSet()); err != nil {
		b.Fatal(err)
	}
	want := len(warm.Findings())
	warm.Metrics()
	st, err := warm.ExportState()
	if err != nil {
		b.Fatal(err)
	}
	d, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := d.Corpus("bench")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("10k-files-snapshot-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := cs.WriteSnapshot(st)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(n)
		}
	})
	if _, err := cs.WriteSnapshot(st); err != nil {
		b.Fatal(err)
	}

	b.Run("10k-files-restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, _, err := cs.RecoverReadOnly(core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if n := len(a.Findings()); n != want {
				b.Fatalf("restored findings %d, want %d", n, want)
			}
			a.Metrics()
		}
	})

	b.Run("10k-files-restore-delta-1file", func(b *testing.B) {
		a, _, err := cs.RecoverReadOnly(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		a.Findings()
		victim := gen.Paths()[len(gen.Paths())/2]
		base := gen.Source(victim)
		// The same alternating probe as 10k-files-delta-1file, so the
		// two numbers compare like for like (steady state, stable
		// cross-file environment signature).
		variant := func(i int) string {
			if i%2 == 0 {
				return base + "\nfloat ScaleProbe(float x, int m) { if (m > 1) { x = x + 1.0f; } return x; }\n"
			}
			return base + "\nfloat ScaleProbe(float x, int m) { while (x > 0.5f * m) { x = x - 1.0f; } return x; }\n"
		}
		if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
			Path: victim, Src: variant(1)}}}); err != nil {
			b.Fatal(err)
		}
		a.Findings()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
				Path: victim, Src: variant(i)}}}); err != nil {
				b.Fatal(err)
			}
			if len(a.Findings()) == 0 {
				b.Fatal("no findings")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Tables

// BenchmarkTable1CodingGuidelines measures the modeling/coding-guideline
// checker pass behind the paper's Table 1 verdicts.
func BenchmarkTable1CodingGuidelines(b *testing.B) {
	units := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := rules.NewContext(units)
		fs := rules.Run(ctx, rulesFor("coding"))
		if len(fs) == 0 {
			b.Fatal("no findings")
		}
	}
}

// BenchmarkTable2Architecture measures the architectural metrics behind
// the paper's Table 2 verdicts (sizes, interfaces, cohesion, coupling).
func BenchmarkTable2Architecture(b *testing.B) {
	units := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch := metrics.AnalyzeArchIndexed(artifact.Build(units))
		if len(arch) == 0 {
			b.Fatal("no modules")
		}
	}
}

// BenchmarkTable3UnitDesign measures the unit design & implementation
// checker pass behind the paper's Table 3 verdicts.
func BenchmarkTable3UnitDesign(b *testing.B) {
	units := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := rules.NewContext(units)
		fs := rules.Run(ctx, rulesFor("unit"))
		if len(fs) == 0 {
			b.Fatal("no findings")
		}
	}
}

// ---------------------------------------------------------------------------
// Figures

// BenchmarkFigure3Complexity measures the Lizard-equivalent complexity
// analysis over the full 220k-LOC corpus.
func BenchmarkFigure3Complexity(b *testing.B) {
	units := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw := metrics.AnalyzeIndexed(artifact.Build(units))
		if fw.ModerateOrWorse != 554 {
			b.Fatalf("moderate-or-worse = %d", fw.ModerateOrWorse)
		}
	}
}

// BenchmarkFigure4CudaFindings measures the CUDA rule pass on the
// scale_bias_gpu excerpt.
func BenchmarkFigure4CudaFindings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := core.Figure4()
		if err != nil || len(fs) == 0 {
			b.Fatalf("figure4: %v (%d findings)", err, len(fs))
		}
	}
}

// BenchmarkFigure5YoloCoverage measures the full coverage experiment:
// parse the YOLO corpus, instrument, interpret the test drivers, and
// compute statement/branch/MC-DC per file.
func BenchmarkFigure5YoloCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Figure5(coverage.UniqueCause)
		if err != nil || len(res.Rows) != 8 {
			b.Fatalf("figure5: %v", err)
		}
	}
}

// BenchmarkFigure6StencilCoverage measures the cuda4cpu-style experiment:
// emulate the stencil kernels on the CPU under coverage instrumentation.
func BenchmarkFigure6StencilCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Figure6()
		if err != nil || len(rows) != 2 {
			b.Fatalf("figure6: %v", err)
		}
	}
}

// BenchmarkFigure7ObjectDetection measures the six-library detection
// inference-time model.
func BenchmarkFigure7ObjectDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.Figure7()
		if len(rows) != 6 {
			b.Fatal("figure7 rows")
		}
	}
}

// BenchmarkFigure8aGEMM measures the CUTLASS-vs-cuBLAS GEMM sweep.
func BenchmarkFigure8aGEMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.Figure8a()) == 0 {
			b.Fatal("figure8a rows")
		}
	}
}

// BenchmarkFigure8bConv measures the ISAAC-vs-cuDNN convolution sweep.
func BenchmarkFigure8bConv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.Figure8b()) == 0 {
			b.Fatal("figure8b rows")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)

// BenchmarkAblationMCDCMode compares unique-cause against masking MC/DC
// analysis cost on the Figure 5 pipeline.
func BenchmarkAblationMCDCMode(b *testing.B) {
	for _, mode := range []coverage.MCDCMode{coverage.UniqueCause, coverage.Masking} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Figure5(mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationISAACTuning compares the autotuned ISAAC model against
// the untuned first candidate across the Figure 8b sweep.
func BenchmarkAblationISAACTuning(b *testing.B) {
	gpu := gpusim.TitanV()
	shapes := core.Figure8bShapes()
	for _, lib := range []*gpusim.Library{gpusim.ISAAC(gpu), gpusim.ISAACUntuned(gpu)} {
		lib := lib
		b.Run(lib.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range shapes {
					if lib.ConvTime(s) <= 0 {
						b.Fatal("non-positive time")
					}
				}
			}
		})
	}
}

// BenchmarkAblationRulePasses compares a single shared Context across all
// rules against rebuilding the Context per rule (the cross-file indexes
// dominate; the engine shares them by design).
func BenchmarkAblationRulePasses(b *testing.B) {
	units := benchCorpus(b)
	b.Run("shared-context", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := rules.NewContext(units)
			rules.Run(ctx, rules.DefaultRules())
		}
	})
	b.Run("context-per-rule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range rules.DefaultRules() {
				ctx := rules.NewContext(units)
				r.Check(ctx)
			}
		}
	})
}

// BenchmarkAblationCorpusScale measures generation+parsing+analysis
// throughput against corpus size.
func BenchmarkAblationCorpusScale(b *testing.B) {
	scales := []struct {
		name string
		n    int // number of modules from the default spec
	}{{"2-modules", 2}, {"5-modules", 5}, {"10-modules", 10}}
	for _, sc := range scales {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			specs := apollocorpus.DefaultSpec()[:sc.n]
			for i := 0; i < b.N; i++ {
				fs := apollocorpus.Generate(specs, 1)
				units, errs := ccparse.ParseAll(fs, ccparse.Options{})
				if len(errs) > 0 {
					b.Fatal(errs[0])
				}
				metrics.AnalyzeIndexed(artifact.Build(units))
			}
		})
	}
}

// BenchmarkExtensionTestGen measures the coverage-guided test-vector
// search (Observation 10 remediation) on the YOLO activation dispatcher.
func BenchmarkExtensionTestGen(b *testing.B) {
	fs := apollocorpus.YoloCorpus()
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	var tus []*ccast.TranslationUnit
	for _, tu := range units {
		tus = append(tus, tu)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := testgen.Search(tus, "activate", testgen.Options{Budget: 400, Seed: 7})
		if err != nil || res.After.BranchPct() != 100 {
			b.Fatalf("search failed: %v", err)
		}
	}
}

// BenchmarkExtensionBrookAuto measures the GPU-subset conformance check
// over every CUDA kernel in the corpus (Observations 3-4 remediation).
func BenchmarkExtensionBrookAuto(b *testing.B) {
	units := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := brookauto.CheckUnits(units)
		if len(rs) == 0 {
			b.Fatal("no kernels")
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks

// BenchmarkParseCorpus isolates frontend throughput on the full corpus.
func BenchmarkParseCorpus(b *testing.B) {
	benchCorpus(b)
	bytes := 0
	for _, f := range benchFS.Files() {
		bytes += len(f.Src)
	}
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := ccparse.ParseAll(benchFS, ccparse.Options{})
		if len(errs) > 0 {
			b.Fatal(errs[0])
		}
	}
}

// BenchmarkGenerateCorpus isolates the corpus generator.
func BenchmarkGenerateCorpus(b *testing.B) {
	specs := apollocorpus.DefaultSpec()
	for i := 0; i < b.N; i++ {
		fs := apollocorpus.Generate(specs, int64(i))
		if fs.Len() == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkInterpreterYolo measures raw interpreter speed on the YOLO
// drivers without coverage instrumentation.
func BenchmarkInterpreterYolo(b *testing.B) {
	fs := apollocorpus.YoloCorpus()
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	var tus []*ccast.TranslationUnit
	for _, tu := range units {
		tus = append(tus, tu)
	}
	entries := apollocorpus.YoloEntryPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := cinterp.NewMachine(tus...)
		for _, e := range entries {
			m.Reset()
			if _, err := m.Call(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRealGEMM measures the actual CPU GEMM kernel (the compute
// backing the "two orders of magnitude" CPU baseline).
func BenchmarkRealGEMM(b *testing.B) {
	n := 128
	a := tensor.New(n, n)
	bb := tensor.New(n, n)
	c := tensor.New(n, n)
	for i := range a.Data {
		a.Data[i] = float32(i%7) - 3
		bb.Data[i] = float32(i%5) - 2
	}
	b.SetBytes(int64(3 * 4 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(1, a, bb, 0, c)
	}
}

// BenchmarkMicroYoloForward measures a real CPU inference of the micro
// detection network.
func BenchmarkMicroYoloForward(b *testing.B) {
	net := yolo.MicroYOLO()
	w := net.RandomWeights(1)
	in := tensor.New(3, 32, 32)
	for i := range in.Data {
		in.Data[i] = float32(i%13) / 13
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := net.Forward(in.Clone(), w)
		if err != nil {
			b.Fatal(err)
		}
		net.DecodeRegion(out, 0.3)
	}
}
