package apollocorpus

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/cinterp"
	"repro/internal/cuda"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// The corpus is generated and parsed once per test binary; it is the
// shared subject of several calibration tests.
var (
	corpusOnce  sync.Once
	corpusFS    *srcfile.FileSet
	corpusUnits map[string]*ccast.TranslationUnit
	corpusErrs  []*ccparse.Error
)

func corpus(t *testing.T) (map[string]*ccast.TranslationUnit, *srcfile.FileSet) {
	t.Helper()
	corpusOnce.Do(func() {
		corpusFS = GenerateDefault()
		corpusUnits, corpusErrs = ccparse.ParseAll(corpusFS, ccparse.Options{})
	})
	if len(corpusErrs) > 0 {
		t.Fatalf("corpus has %d parse errors, first: %v", len(corpusErrs), corpusErrs[0])
	}
	return corpusUnits, corpusFS
}

func TestCorpusDeterministic(t *testing.T) {
	a := Generate(DefaultSpec()[:1], 26262)
	b := Generate(DefaultSpec()[:1], 26262)
	if a.Len() != b.Len() {
		t.Fatalf("file counts differ: %d vs %d", a.Len(), b.Len())
	}
	for _, f := range a.Files() {
		g := b.Lookup(f.Path)
		if g == nil || g.Src != f.Src {
			t.Fatalf("file %s differs between runs", f.Path)
		}
	}
	c := Generate(DefaultSpec()[:1], 99)
	diff := false
	for _, f := range a.Files() {
		if g := c.Lookup(f.Path); g != nil && g.Src != f.Src {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should produce different corpora")
	}
}

func TestCorpusParsesCleanly(t *testing.T) {
	units, _ := corpus(t)
	if len(units) == 0 {
		t.Fatal("empty corpus")
	}
}

func TestCorpusTotalSize(t *testing.T) {
	_, fs := corpus(t)
	loc := fs.TotalLines()
	if loc < 220000 {
		t.Errorf("total LOC = %d, want > 220000 (paper: >220k)", loc)
	}
	if loc > 280000 {
		t.Errorf("total LOC = %d, implausibly large", loc)
	}
}

func TestCorpusModuleSizes(t *testing.T) {
	_, fs := corpus(t)
	for _, spec := range DefaultSpec() {
		loc := 0
		for _, f := range fs.ModuleFiles(spec.Name) {
			loc += f.LineCount()
		}
		if loc < spec.TargetLOC*9/10 || loc > spec.TargetLOC*12/10 {
			t.Errorf("module %s LOC = %d, want ≈%d", spec.Name, loc, spec.TargetLOC)
		}
		// Paper: main modules span 5k-60k LOC.
		if loc < 5000 || loc > 66000 {
			t.Errorf("module %s LOC = %d outside the paper's 5k-60k band", spec.Name, loc)
		}
	}
}

func TestCorpusComplexityCalibration(t *testing.T) {
	units, _ := corpus(t)
	fw := metrics.AnalyzeIndexed(artifact.Build(units))
	if fw.ModerateOrWorse != 554 {
		t.Errorf("moderate-or-worse functions = %d, want exactly 554 (Figure 3)",
			fw.ModerateOrWorse)
	}
}

func TestCorpusCastCalibration(t *testing.T) {
	units, _ := corpus(t)
	ctx := rules.NewContext(units)
	fs := (&rules.CastRule{}).Check(ctx)
	if len(fs) < 1400 {
		t.Errorf("explicit casts = %d, want > 1400 (Observation 5)", len(fs))
	}
}

func TestCorpusGlobalsCalibration(t *testing.T) {
	units, _ := corpus(t)
	ctx := rules.NewContext(units)
	fs := (&rules.GlobalVarRule{}).Check(ctx)
	perception := 0
	for _, f := range fs {
		if f.Module == "perception" {
			perception++
		}
	}
	if perception < 850 || perception > 950 {
		t.Errorf("perception globals = %d, want ≈900", perception)
	}
}

func TestCorpusMultiExitCalibration(t *testing.T) {
	units, _ := corpus(t)
	total, multi := 0, 0
	for path, tu := range units {
		if tu.File.ModuleName() != "perception" {
			continue
		}
		_ = path
		for _, fn := range tu.Funcs() {
			total++
			if ccast.CountReturns(fn) > 1 {
				multi++
			}
		}
	}
	frac := float64(multi) / float64(total)
	if frac < 0.33 || frac > 0.49 {
		t.Errorf("perception multi-exit fraction = %.2f (%d/%d), want ≈0.41",
			frac, multi, total)
	}
}

func TestCorpusHasCUDAFindings(t *testing.T) {
	units, _ := corpus(t)
	ctx := rules.NewContext(units)
	dyn := (&rules.DynamicMemoryRule{}).Check(ctx)
	cudaDyn := 0
	for _, f := range dyn {
		if f.Module == "perception" {
			cudaDyn++
		}
	}
	if cudaDyn == 0 {
		t.Error("no dynamic-memory findings in perception CUDA files")
	}
	subset := (&rules.LanguageSubsetRule{}).Check(ctx)
	launches := 0
	for _, f := range subset {
		if f.RuleID == "lang-subset" && f.Module == "perception" {
			launches++
		}
	}
	if launches == 0 {
		t.Error("no kernel-launch findings in perception")
	}
}

func TestCorpusSeedsStructuralFindings(t *testing.T) {
	units, _ := corpus(t)
	ctx := rules.NewContext(units)
	if got := len((&rules.GotoRule{}).Check(ctx)); got < 10 {
		t.Errorf("goto findings = %d, want >= 10 (2 per seeded function)", got)
	}
	if got := len((&rules.RecursionRule{}).Check(ctx)); got < 5 {
		t.Errorf("recursion findings = %d, want >= 5", got)
	}
	if got := len((&rules.UninitializedRule{}).Check(ctx)); got < 10 {
		t.Errorf("uninitialized findings = %d, want >= 10", got)
	}
	if got := len((&rules.ImplicitConversionRule{}).Check(ctx)); got < 100 {
		t.Errorf("implicit conversions = %d, want >= 100 (Table 8 item 7 evidence)", got)
	}
}

func TestScaleBiasSampleFindings(t *testing.T) {
	f := ScaleBiasSample()
	set := srcfile.NewFileSet()
	set.Add(f)
	units, errs := ccparse.ParseAll(set, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("figure 4 sample parse errors: %v", errs)
	}
	ctx := rules.NewContext(units)
	dyn := (&rules.DynamicMemoryRule{}).Check(ctx)
	if len(dyn) != 4 { // 2x cudaMalloc + 2x cudaFree
		t.Errorf("dynamic-memory findings = %d, want 4: %v", len(dyn), dyn)
	}
	ptr := (&rules.PointerRule{}).Check(ctx)
	if len(ptr) < 6 {
		t.Errorf("pointer findings = %d, want >= 6", len(ptr))
	}
}

func TestYoloCorpusParsesAndRuns(t *testing.T) {
	fs := YoloCorpus()
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("yolo parse errors: %v", errs)
	}
	tus := make([]*ccast.TranslationUnit, 0, len(units))
	for _, tu := range units {
		tus = append(tus, tu)
	}
	m := cinterp.NewMachine(tus...)
	for _, entry := range YoloEntryPoints() {
		m.Reset()
		if _, err := m.Call(entry); err != nil {
			t.Errorf("%s: %v", entry, err)
		}
	}
}

func TestStencilCorpusRunsUnderEmulation(t *testing.T) {
	fs := StencilCorpus()
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("stencil parse errors: %v", errs)
	}
	tus := make([]*ccast.TranslationUnit, 0, len(units))
	for _, tu := range units {
		tus = append(tus, tu)
	}
	m := cinterp.NewMachine(tus...)
	em := cuda.NewEmulator(m)
	for _, entry := range StencilEntryPoints() {
		m.Reset()
		v, err := m.Call(entry)
		if err != nil {
			t.Fatalf("%s: %v", entry, err)
		}
		if v.AsInt() == 0 {
			t.Errorf("%s checksum = 0, kernel likely did not write", entry)
		}
	}
	if em.Launches != 2 {
		t.Errorf("launches = %d, want 2", em.Launches)
	}
	if em.ThreadsRun == 0 {
		t.Error("no kernel threads executed")
	}
}

func TestCorpusRoundTripsThroughDisk(t *testing.T) {
	// The adcorpus tool writes the corpus to disk for external tools; a
	// write/read round trip must preserve every byte and parse result.
	dir := t.TempDir()
	src := Generate(DefaultSpec()[:1], 5)
	for _, f := range src.Files() {
		dst := filepath.Join(dir, filepath.FromSlash(f.Path))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, []byte(f.Src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reread := srcfile.NewFileSet()
	for _, f := range src.Files() {
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(f.Path)))
		if err != nil {
			t.Fatal(err)
		}
		reread.AddSource(f.Path, string(data))
	}
	if reread.Len() != src.Len() {
		t.Fatalf("file count changed: %d vs %d", reread.Len(), src.Len())
	}
	for _, f := range src.Files() {
		if got := reread.Lookup(f.Path); got == nil || got.Src != f.Src {
			t.Fatalf("content changed for %s", f.Path)
		}
	}
	if _, errs := ccparse.ParseAll(reread, ccparse.Options{}); len(errs) > 0 {
		t.Fatalf("re-read corpus has parse errors: %v", errs[0])
	}
}

func TestCalibrationHelpers(t *testing.T) {
	specs := DefaultSpec()
	if got := TotalModeratePlus(specs); got != 554 {
		t.Errorf("spec moderate+ = %d, want 554", got)
	}
	if got := TotalCasts(specs); got < 1400 {
		t.Errorf("spec casts = %d, want >= 1400", got)
	}
}
