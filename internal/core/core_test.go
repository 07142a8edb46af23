package core

import (
	"sync"
	"testing"

	"repro/internal/coverage"
	"repro/internal/iso26262"
	"repro/internal/srcfile"
)

// The default assessment is expensive (220k LOC); share one per binary.
var (
	assessOnce sync.Once
	sharedA    *Assessor
	sharedAs   *Assessment
)

func defaultAssessment(t *testing.T) (*Assessor, *Assessment) {
	t.Helper()
	assessOnce.Do(func() {
		sharedA = NewAssessor(DefaultConfig())
		if err := sharedA.LoadDefaultCorpus(); err != nil {
			t.Fatalf("load corpus: %v", err)
		}
		sharedAs = sharedA.Assess()
	})
	if sharedAs == nil {
		t.Fatal("assessment unavailable")
	}
	return sharedA, sharedAs
}

func TestAssessmentTablesComplete(t *testing.T) {
	_, as := defaultAssessment(t)
	if len(as.Coding) != 8 {
		t.Errorf("Table 1 verdicts = %d, want 8", len(as.Coding))
	}
	if len(as.Arch) != 7 {
		t.Errorf("Table 2 verdicts = %d, want 7", len(as.Arch))
	}
	if len(as.Unit) != 10 {
		t.Errorf("Table 3 verdicts = %d, want 10", len(as.Unit))
	}
	if len(as.Observations) != 14 {
		t.Errorf("observations = %d, want 14", len(as.Observations))
	}
}

// TestPaperVerdictShape pins the qualitative outcome of the paper: the
// framework fails complexity, language subsets, strong typing, defensive
// programming, dynamic memory, and single-exit — but passes style and
// naming, and graphical representation is N/A.
func TestPaperVerdictShape(t *testing.T) {
	_, as := defaultAssessment(t)
	get := func(group []iso26262.TopicAssessment, item int) iso26262.TopicAssessment {
		for _, ta := range group {
			if ta.Topic.Item == item {
				return ta
			}
		}
		t.Fatalf("missing item %d", item)
		return iso26262.TopicAssessment{}
	}
	if v := get(as.Coding, 1).Verdict; v != iso26262.NonCompliant {
		t.Errorf("low complexity verdict = %v, want non-compliant (Obs 1)", v)
	}
	if v := get(as.Coding, 2).Verdict; v != iso26262.NonCompliant {
		t.Errorf("language subset verdict = %v, want non-compliant (Obs 2-4)", v)
	}
	if v := get(as.Coding, 3).Verdict; v != iso26262.NonCompliant {
		t.Errorf("strong typing verdict = %v, want non-compliant (Obs 5)", v)
	}
	if v := get(as.Coding, 4).Verdict; v != iso26262.NonCompliant {
		t.Errorf("defensive verdict = %v, want non-compliant (Obs 6)", v)
	}
	if v := get(as.Coding, 6).Verdict; v != iso26262.NotApplicable {
		t.Errorf("graphical representation = %v, want n/a", v)
	}
	if v := get(as.Coding, 7).Verdict; v != iso26262.Compliant {
		t.Errorf("style verdict = %v, want compliant (Obs 8)", v)
	}
	if v := get(as.Coding, 8).Verdict; v != iso26262.Compliant {
		t.Errorf("naming verdict = %v, want compliant (Obs 9)", v)
	}
	if v := get(as.Unit, 1).Verdict; v != iso26262.NonCompliant {
		t.Errorf("single-exit verdict = %v, want non-compliant (41%% multi-exit)", v)
	}
	if v := get(as.Unit, 2).Verdict; v != iso26262.NonCompliant {
		t.Errorf("dynamic memory verdict = %v, want non-compliant (Obs 4)", v)
	}
	if v := get(as.Arch, 2).Verdict; v != iso26262.NonCompliant {
		t.Errorf("component size verdict = %v, want non-compliant (Obs 13)", v)
	}
}

func TestGapsAtASILD(t *testing.T) {
	_, as := defaultAssessment(t)
	gaps := as.Gaps()
	if len(gaps) < 6 {
		t.Errorf("certification gaps = %d, want many (the paper's core message)", len(gaps))
	}
	for _, g := range gaps {
		if g.Topic.RecommendationFor(iso26262.ASILD) == iso26262.NotRequired {
			t.Errorf("gap on not-required topic %v", g.Topic.Name)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	a, _ := defaultAssessment(t)
	rows := a.Figure3()
	if len(rows) != 10 {
		t.Fatalf("modules = %d, want 10", len(rows))
	}
	totalOver10 := 0
	for _, r := range rows {
		if r.LOC == 0 || r.Functions == 0 {
			t.Errorf("module %s has empty stats", r.Module)
		}
		if r.Over10 < r.Over20 || r.Over20 < r.Over50 {
			t.Errorf("module %s threshold counts not monotone: %d/%d/%d",
				r.Module, r.Over10, r.Over20, r.Over50)
		}
		totalOver10 += r.Over10
	}
	if totalOver10 != 554 {
		t.Errorf("total moderate-or-worse = %d, want 554", totalOver10)
	}
}

func TestFigure4Findings(t *testing.T) {
	fs, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	var dyn, ptr bool
	for _, f := range fs {
		switch f.Rule {
		case "dynamic-memory":
			dyn = true
		case "pointer":
			ptr = true
		}
	}
	if !dyn || !ptr {
		t.Errorf("Figure 4 must evidence pointers and dynamic memory: %+v", fs)
	}
}

func TestFigure5CoverageShape(t *testing.T) {
	res, err := Figure5(coverage.UniqueCause)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("files = %d, want 8", len(res.Rows))
	}
	// Paper shape: averages well below 100, ordered stmt >= branch >= mcdc.
	if res.AvgStmt >= 100 || res.AvgStmt < 50 {
		t.Errorf("avg stmt = %.1f, want in [50, 100)", res.AvgStmt)
	}
	if res.AvgBranch >= res.AvgStmt {
		t.Errorf("avg branch (%.1f) should be below stmt (%.1f)", res.AvgBranch, res.AvgStmt)
	}
	if res.AvgMCDC >= res.AvgBranch {
		t.Errorf("avg mcdc (%.1f) should be below branch (%.1f)", res.AvgMCDC, res.AvgBranch)
	}
	// Individual files dip much lower than the average (paper: 19/37/10).
	minStmt := 100.0
	for _, r := range res.Rows {
		if r.StmtPct < minStmt {
			minStmt = r.StmtPct
		}
	}
	if minStmt > 90 {
		t.Errorf("min per-file stmt = %.1f, want a clearly under-tested file", minStmt)
	}
}

func TestFigure5MaskingAtLeastUniqueCause(t *testing.T) {
	uc, err := Figure5(coverage.UniqueCause)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := Figure5(coverage.Masking)
	if err != nil {
		t.Fatal(err)
	}
	if mk.AvgMCDC < uc.AvgMCDC-1e-9 {
		t.Errorf("masking avg MC/DC (%.1f) below unique-cause (%.1f)", mk.AvgMCDC, uc.AvgMCDC)
	}
	// Statement and branch metrics are mode-independent.
	if mk.AvgStmt != uc.AvgStmt || mk.AvgBranch != uc.AvgBranch {
		t.Error("stmt/branch coverage must not depend on MC/DC mode")
	}
}

func TestMixedLanguageCorpusEndToEnd(t *testing.T) {
	fs := srcfile.NewFileSet()
	fs.AddSource("control/pid.c", `
int clamp(int x, int lo, int hi) {
    if (x < lo) return lo;
    if (x > hi) return hi;
    return x;
}`)
	fs.AddSource("perception/det.cc", `
namespace apollo {
class Det {
 public:
  int Count() { return n_; }
 private:
  int n_;
};
}`)
	fs.AddSource("perception/k.cu", `
__global__ void zero(float* x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { x[i] = 0.0f; }
}`)
	a := NewAssessor(DefaultConfig())
	if err := a.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	as := a.Assess()
	if len(as.Coding) != 8 || len(as.Unit) != 10 {
		t.Fatal("verdict tables incomplete on mixed corpus")
	}
	fw := a.Metrics()
	if fw.TotalFunc != 3 {
		t.Errorf("functions = %d, want 3 across C/C++/CUDA", fw.TotalFunc)
	}
	if a.Stats().ByRule["multi-exit"] != 1 {
		t.Errorf("multi-exit = %d", a.Stats().ByRule["multi-exit"])
	}
}

func TestFigure6CoverageShape(t *testing.T) {
	rows, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("kernels = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.StmtPct <= 0 || r.StmtPct > 100 {
			t.Errorf("%s stmt = %.1f", r.Kernel, r.StmtPct)
		}
		if r.BranchPct >= 100 {
			t.Errorf("%s branch = %.1f, want <100 (paper: full coverage not achieved)",
				r.Kernel, r.BranchPct)
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	rows := Figure7()
	if len(rows) != 6 {
		t.Fatalf("libraries = %d, want 6", len(rows))
	}
	byName := map[string]Figure7Row{}
	for _, r := range rows {
		byName[r.Library] = r
	}
	if rel := byName["ISAAC"].RelToCuDNN; rel < 0.7 || rel > 1.4 {
		t.Errorf("ISAAC relative = %.2f, want competitive", rel)
	}
	if rel := byName["CUTLASS"].RelToCuDNN; rel < 0.5 || rel > 2 {
		t.Errorf("CUTLASS relative = %.2f", rel)
	}
	if rel := byName["ATLAS"].RelToCuDNN; rel < 40 {
		t.Errorf("ATLAS relative = %.0fx, want ~two orders of magnitude", rel)
	}
	if rel := byName["OpenBLAS"].RelToCuDNN; rel < 40 {
		t.Errorf("OpenBLAS relative = %.0fx", rel)
	}
}

func TestFigure8Shapes(t *testing.T) {
	for _, r := range Figure8a() {
		if r.Relative < 0.7 || r.Relative > 1.2 {
			t.Errorf("Figure 8a %s: CUTLASS relative %.2f outside competitive band", r.Workload, r.Relative)
		}
	}
	wins := 0
	for _, r := range Figure8b() {
		if r.Relative < 0.6 || r.Relative > 1.5 {
			t.Errorf("Figure 8b %s: ISAAC relative %.2f outside band", r.Workload, r.Relative)
		}
		if r.Relative >= 1 {
			wins++
		}
	}
	if wins == 0 {
		t.Error("ISAAC should win at least one workload")
	}
}

func TestLoadFileSetCustomCorpus(t *testing.T) {
	fs := srcfile.NewFileSet()
	fs.AddSource("tiny/a.c", `
int g_counter;
int check(int* p) { return p[0]; }
int twice(int x) {
    if (x < 0) return 0;
    return 2 * x;
}`)
	a := NewAssessor(DefaultConfig())
	if err := a.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	as := a.Assess()
	if len(as.Unit) != 10 {
		t.Fatalf("unit verdicts = %d", len(as.Unit))
	}
	if a.Stats().ByRule["multi-exit"] != 1 {
		t.Errorf("multi-exit = %d, want 1", a.Stats().ByRule["multi-exit"])
	}
	if a.Stats().ByRule["global-var"] != 1 {
		t.Errorf("global-var = %d, want 1", a.Stats().ByRule["global-var"])
	}
}

func TestObservation14FractionMatchesPaper(t *testing.T) {
	a, _ := defaultAssessment(t)
	frac, total := multiExitFraction(a.Metrics(), "perception")
	if total == 0 {
		t.Fatal("no perception functions")
	}
	if frac < 0.33 || frac > 0.49 {
		t.Errorf("perception multi-exit = %.2f, want ≈0.41", frac)
	}
}
