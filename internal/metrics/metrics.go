package metrics

import (
	"sort"
	"sync"

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
	// MultiExit counts functions with more than one return statement
	// (Observation 14's multiple-exit share).
	MultiExit int
}

// FrameworkMetrics is the whole-corpus result.
type FrameworkMetrics struct {
	Modules    []*ModuleMetrics // sorted by name
	TotalFiles int
	TotalLOC   int
	TotalNLOC  int
	TotalFunc  int
	// ModerateOrWorse counts functions with CCN >= 11 framework-wide
	// (the paper reports 554 for Apollo).
	ModerateOrWorse int

	// files is the row list Files returns; a cached result builds it
	// from rows on first use.
	filesOnce sync.Once
	files     []*FileMetrics
	rows      func() []*FileMetrics
}

// Files returns every file row in sorted path order. A result of
// Cache.AnalyzeIndexed builds the list on first use; concurrent callers
// share it. The list and its rows are shared: callers must not modify
// them.
func (fw *FrameworkMetrics) Files() []*FileMetrics {
	fw.filesOnce.Do(func() {
		if fw.rows != nil {
			fw.files, fw.rows = fw.rows(), nil
		}
	})
	return fw.files
}

// Thresholds used for Figure 3's "functions with CCN over N" bars.
var Thresholds = []int{10, 20, 50}

// functionRow assembles a metrics row from a parsed unit's record: its
// facts, plus the declaration's span and kernel marker.
func functionRow(fa *artifact.Func, file *srcfile.File) *FunctionMetrics {
	sp := fa.Decl.Span()
	fm := &FunctionMetrics{
		Name:      fa.Name,
		File:      file.Path,
		Module:    file.ModuleName(),
		StartLine: fa.Line,
		EndLine:   sp.End.Line,
		CCN:       fa.CCN,
		Params:    fa.Params,
		Returns:   fa.Returns,
		IsKernel:  fa.Decl.IsKernel(),
	}
	// Function NLOC: count over the function's source slice.
	if sp.Start.Offset >= 0 && sp.End.Offset <= len(file.Src) && sp.Start.Offset < sp.End.Offset {
		fm.NLOC = CountNLOC(file.Src[sp.Start.Offset:sp.End.Offset])
	}
	return fm
}

// FileRow builds a parsed unit's metrics row from its artifact records,
// reusing their CCN and return counts instead of re-walking bodies; it
// reads each declaration's span and kernel marker. The row holds facts
// only, never a node of the unit.
func FileRow(tu *ccast.TranslationUnit, fas []*artifact.Func) *FileMetrics {
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
		fm.Functions = append(fm.Functions, functionRow(fa, f))
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
		files[i] = FileRow(ix.Units[p], ix.UnitFuncs(p))
	})
	return aggregate(files)
}

// aggregate folds per-file rows (in sorted path order) into the
// framework-wide result.
func aggregate(files []*FileMetrics) *FrameworkMetrics {
	out := &FrameworkMetrics{TotalFiles: len(files), files: files}
	mods := make(map[string]*ModuleMetrics)

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
			if fn.Returns > 1 {
				mm.MultiExit++
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
	for _, f := range fw.Files() {
		out = append(out, f.Functions...)
	}
	return out
}
