package metrics

import (
	"sort"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/par"
	"repro/internal/srcfile"
)

// Band classifies cyclomatic complexity per the reference ranges used in
// the paper: 1-10 low, 11-20 moderate, 21-50 risky, >50 unstable.
type Band int

// Complexity bands.
const (
	BandLow Band = iota
	BandModerate
	BandRisky
	BandUnstable
)

// String names the band.
func (b Band) String() string {
	switch b {
	case BandLow:
		return "low"
	case BandModerate:
		return "moderate"
	case BandRisky:
		return "risky"
	default:
		return "unstable"
	}
}

// BandOf returns the band for a CCN value.
func BandOf(ccn int) Band {
	switch {
	case ccn <= 10:
		return BandLow
	case ccn <= 20:
		return BandModerate
	case ccn <= 50:
		return BandRisky
	default:
		return BandUnstable
	}
}

// Cyclomatic computes Lizard-compatible cyclomatic complexity for a
// function definition: 1 + one per branching construct (if, while, do,
// for, each case label) + one per short-circuit operator (&&, ||) + one
// per ternary conditional. A function with no body has CCN 0.
func Cyclomatic(fn *ccast.FuncDecl) int {
	if fn == nil || fn.Body == nil {
		return 0
	}
	ccn := 1
	ccast.Walk(fn.Body, func(n ccast.Node) bool {
		switch n := n.(type) {
		case *ccast.If, *ccast.While, *ccast.DoWhile, *ccast.Cond:
			ccn++
		case *ccast.For:
			ccn++
		case *ccast.Switch:
			for _, c := range n.Cases {
				ccn += len(c.Values)
			}
		case *ccast.Binary:
			if n.Op == "&&" || n.Op == "||" {
				ccn++
			}
		}
		return true
	})
	return ccn
}

// FunctionMetrics is the per-function row of the Figure 3 analysis.
type FunctionMetrics struct {
	Name      string
	File      string
	Module    string
	StartLine int
	EndLine   int
	NLOC      int
	CCN       int
	Params    int
	Returns   int // number of return statements
	IsKernel  bool
}

// Band returns the complexity band of the function.
func (fm *FunctionMetrics) Band() Band { return BandOf(fm.CCN) }

// FileMetrics aggregates one file.
type FileMetrics struct {
	Path      string
	Module    string
	Lang      srcfile.Language
	LOC       int // physical lines
	NLOC      int // non-comment, non-blank lines
	Functions []*FunctionMetrics
}

// ModuleMetrics aggregates one AD module (Figure 3 has one bar group per
// module).
type ModuleMetrics struct {
	Name      string
	Files     int
	LOC       int
	NLOC      int
	Functions int
	// OverCCN maps a threshold to the number of functions whose CCN
	// strictly exceeds it; Figure 3 uses thresholds 10, 20, and 50.
	OverCCN map[int]int
	MaxCCN  int
	SumCCN  int
}

// MeanCCN returns the average complexity across the module's functions.
func (m *ModuleMetrics) MeanCCN() float64 {
	if m.Functions == 0 {
		return 0
	}
	return float64(m.SumCCN) / float64(m.Functions)
}

// FrameworkMetrics is the whole-corpus result.
type FrameworkMetrics struct {
	Modules   []*ModuleMetrics // sorted by name
	Files     []*FileMetrics   // corpus order
	TotalLOC  int
	TotalNLOC int
	TotalFunc int
	// ModerateOrWorse counts functions with CCN >= 11 framework-wide
	// (the paper reports 554 for Apollo).
	ModerateOrWorse int
}

// Thresholds used for Figure 3's "functions with CCN over N" bars.
var Thresholds = []int{10, 20, 50}

// functionRow assembles a metrics row from precomputed traversal facts.
func functionRow(fn *ccast.FuncDecl, file *srcfile.File, ccn, returns int) *FunctionMetrics {
	sp := fn.Span()
	fm := &FunctionMetrics{
		Name:      fn.Name,
		File:      file.Path,
		Module:    file.ModuleName(),
		StartLine: sp.Start.Line,
		EndLine:   sp.End.Line,
		CCN:       ccn,
		Params:    len(fn.Params),
		Returns:   returns,
		IsKernel:  fn.IsKernel(),
	}
	// Function NLOC: count over the function's source slice.
	if sp.Start.Offset >= 0 && sp.End.Offset <= len(file.Src) && sp.Start.Offset < sp.End.Offset {
		fm.NLOC = CountNLOC(file.Src[sp.Start.Offset:sp.End.Offset])
	}
	return fm
}

// analyzeFileIndexed builds file metrics reusing the artifact cache's
// per-function CCN and return counts instead of re-walking bodies.
func analyzeFileIndexed(tu *ccast.TranslationUnit, fas []*artifact.Func) *FileMetrics {
	f := tu.File
	fm := &FileMetrics{
		Path:   f.Path,
		Module: f.ModuleName(),
		Lang:   f.Lang,
		LOC:    f.LineCount(),
		NLOC:   CountNLOC(f.Src),
	}
	fm.Functions = make([]*FunctionMetrics, 0, len(fas))
	for _, fa := range fas {
		fm.Functions = append(fm.Functions, functionRow(fa.Decl, f, fa.CCN, fa.Returns))
	}
	return fm
}

// Analyze computes framework-wide metrics over parsed units. It builds a
// fresh artifact index internally; callers that already hold one should
// use AnalyzeIndexed to avoid the duplicate traversals.
func Analyze(units map[string]*ccast.TranslationUnit) *FrameworkMetrics {
	return AnalyzeIndexed(artifact.Build(units))
}

// AnalyzeIndexed computes framework-wide metrics from the shared artifact
// cache. Per-file rows (dominated by the NLOC text scans) are computed on
// a worker pool; the module aggregation walks files in sorted path order,
// so the result is deterministic.
func AnalyzeIndexed(ix *artifact.Index) *FrameworkMetrics {
	paths := ix.Paths
	files := make([]*FileMetrics, len(paths))
	par.For(par.Workers(len(paths)), len(paths), func(i int) {
		p := paths[i]
		files[i] = analyzeFileIndexed(ix.Units[p], ix.UnitFuncs(p))
	})
	return aggregate(files)
}

// aggregate folds per-file rows (in sorted path order) into the
// framework-wide result.
func aggregate(files []*FileMetrics) *FrameworkMetrics {
	out := &FrameworkMetrics{}
	mods := make(map[string]*ModuleMetrics)

	out.Files = files
	for _, fm := range files {
		mm := mods[fm.Module]
		if mm == nil {
			mm = &ModuleMetrics{Name: fm.Module, OverCCN: make(map[int]int)}
			mods[fm.Module] = mm
		}
		mm.Files++
		mm.LOC += fm.LOC
		mm.NLOC += fm.NLOC
		out.TotalLOC += fm.LOC
		out.TotalNLOC += fm.NLOC
		for _, fn := range fm.Functions {
			mm.Functions++
			out.TotalFunc++
			mm.SumCCN += fn.CCN
			if fn.CCN > mm.MaxCCN {
				mm.MaxCCN = fn.CCN
			}
			for _, th := range Thresholds {
				if fn.CCN > th {
					mm.OverCCN[th]++
				}
			}
			if fn.CCN >= 11 {
				out.ModerateOrWorse++
			}
		}
	}
	names := make([]string, 0, len(mods))
	for n := range mods {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Modules = append(out.Modules, mods[n])
	}
	return out
}

// Module returns the metrics of a named module, or nil.
func (fw *FrameworkMetrics) Module(name string) *ModuleMetrics {
	for _, m := range fw.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// AllFunctions returns every function row across files.
func (fw *FrameworkMetrics) AllFunctions() []*FunctionMetrics {
	var out []*FunctionMetrics
	for _, f := range fw.Files {
		out = append(out, f.Functions...)
	}
	return out
}
