package rules

import (
	"fmt"
	"strings"

	"repro/internal/ccast"
	"repro/internal/iso26262"
	"repro/internal/metrics"
	"repro/internal/srcfile"
)

var (
	refLowComplexity = iso26262.Ref{Table: iso26262.TableCoding, Item: 1}
	refLangSubset    = iso26262.Ref{Table: iso26262.TableCoding, Item: 2}
)

// ComplexityRule flags functions whose Lizard-style CCN exceeds the
// threshold ("enforcement of low complexity").
type ComplexityRule struct {
	// Threshold is the maximum acceptable CCN; the paper's reference
	// ranges treat >10 as moderate-or-worse.
	Threshold int
}

// ID implements Rule.
func (*ComplexityRule) ID() string { return "complexity" }

// Describe implements Rule.
func (*ComplexityRule) Describe() string {
	return "enforcement of low complexity (ISO26262-6 T1.1)"
}

// Check implements Rule.
func (r *ComplexityRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, fi := range ctx.Funcs {
		r.funcFindings(fi, em)
	}
	return em.out
}

// funcFindings flags one function; the CCN comes from the shared artifact
// cache, so neither engine re-walks the body for complexity.
func (r *ComplexityRule) funcFindings(fi *FuncInfo, em *Emitter) {
	th := r.Threshold
	if th <= 0 {
		th = 10
	}
	ccn := fi.CCN
	if ccn > th {
		sev := Warning
		if ccn > 20 {
			sev = Violation
		}
		em.Emit(finding(r.ID(), sev, fi, fi.Decl.Span().Start.Line,
			fmt.Sprintf("function %s has cyclomatic complexity %d (threshold %d, band %s)",
				fi.Decl.Name, ccn, th, metrics.BandOf(ccn)),
			refLowComplexity))
	}
}

// Fuse implements Rule.
func (r *ComplexityRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnFuncExit(r.funcFindings)
}

// LanguageSubsetRule is the MISRA-inspired language-subset checker. It
// implements decidable rules in the spirit of MISRA C:2012 and, for CUDA
// files, records the paper's Observation 3: no language subset exists for
// GPU code, so every kernel construct is flagged as unassessable.
type LanguageSubsetRule struct{}

// ID implements Rule.
func (*LanguageSubsetRule) ID() string { return "lang-subset" }

// Describe implements Rule.
func (*LanguageSubsetRule) Describe() string {
	return "use language subsets / MISRA C (ISO26262-6 T1.2)"
}

// Check implements Rule.
func (r *LanguageSubsetRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, tu := range ctx.sortedUnits() {
		walkDeclNodes(tu, func(n ccast.Node) { r.declFindings(tu, n, em) })
	}
	for _, fi := range ctx.Funcs {
		ccast.Walk(fi.Decl.Body, func(n ccast.Node) bool {
			r.bodyNode(fi, n, em)
			return true
		})
		r.funcEnter(fi, em)
	}
	return em.out
}

// declFindings flags unions (MISRA C:2012 R19.2) and variadic function
// definitions (R17.1 spirit) at declaration level.
func (r *LanguageSubsetRule) declFindings(tu *ccast.TranslationUnit, n ccast.Node, em *Emitter) {
	switch n := n.(type) {
	case *ccast.RecordDecl:
		if n.Kind == ccast.RecordUnion {
			em.Emit(fileFinding(r.ID(), Warning, tu.File, n.Span().Start.Line,
				fmt.Sprintf("union %q used (MISRA C:2012 R19.2)", n.Name), refLangSubset))
		}
	case *ccast.FuncDecl:
		if n.IsDefinition() && n.Variadic {
			em.Emit(fileFinding(r.ID(), Warning, tu.File, n.Span().Start.Line,
				fmt.Sprintf("variadic function %q (MISRA C:2012 R17.1)", n.Name), refLangSubset))
		}
	}
}

// funcEnter records the paper's Observation 3: a CUDA kernel cannot be
// assessed against any existing safety subset.
func (r *LanguageSubsetRule) funcEnter(fi *FuncInfo, em *Emitter) {
	if fi.File.Lang == srcfile.LangCUDA && fi.Decl.IsKernel() {
		em.Emit(finding(r.ID(), Info, fi, fi.Decl.Span().Start.Line,
			fmt.Sprintf("__global__ kernel %s cannot be assessed against MISRA C (no GPU subset)", fi.Decl.Name),
			refLangSubset))
	}
}

// bodyNode flags comma operators, kernel launches, and banned stdlib
// calls inside function bodies.
func (r *LanguageSubsetRule) bodyNode(fi *FuncInfo, n ccast.Node, em *Emitter) {
	switch n := n.(type) {
	case *ccast.Comma:
		em.Emit(finding(r.ID(), Warning, fi, n.Span().Start.Line,
			"comma operator used (MISRA C:2012 R12.3)", refLangSubset))
	case *ccast.KernelLaunch:
		em.Emit(finding(r.ID(), Violation, fi, n.Span().Start.Line,
			"CUDA kernel launch: no safety language subset exists for GPU code (Observation 3)",
			refLangSubset))
	case *ccast.Call:
		if name := CalleeName(n); bannedStdlib[name] {
			em.Emit(finding(r.ID(), Warning, fi, n.Span().Start.Line,
				fmt.Sprintf("%s() banned by MISRA C:2012 R21.x", name), refLangSubset))
		}
	}
}

// Fuse implements Rule.
func (r *LanguageSubsetRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnDecl(r.declFindings)
	rg.OnFuncEnter(r.funcEnter)
	rg.OnNode(r.bodyNode, KComma, KKernelLaunch, KCall)
}

// bannedStdlib lists functions MISRA C:2012 Rules 21.x prohibit.
var bannedStdlib = map[string]bool{
	"atoi": true, "atol": true, "atof": true, // R21.7
	"setjmp": true, "longjmp": true, // R21.4
	"abort": true, "exit": true, "system": true, // R21.8
	"rand": true, "srand": true, // R21.24 (2012/AMD1)
	"gets": true,
}

// StyleRule checks Google-C++-style layout properties: 80-column limit,
// no tabs, attached opening braces, two-space indentation steps, and a
// minimum comment density per file.
type StyleRule struct {
	// MaxLine defaults to 80.
	MaxLine int
}

var refStyle = iso26262.Ref{Table: iso26262.TableCoding, Item: 7}

// ID implements Rule.
func (*StyleRule) ID() string { return "style" }

// Describe implements Rule.
func (*StyleRule) Describe() string {
	return "use style guides (ISO26262-6 T1.7)"
}

// Check implements Rule.
func (r *StyleRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, tu := range ctx.sortedUnits() {
		r.scanUnit(tu, em)
	}
	return em.out
}

// scanUnit performs the text-level layout checks for one file.
func (r *StyleRule) scanUnit(tu *ccast.TranslationUnit, em *Emitter) {
	maxLine := r.MaxLine
	if maxLine <= 0 {
		maxLine = 80
	}
	f := tu.File
	lines := strings.Split(f.Src, "\n")
	for i, line := range lines {
		ln := i + 1
		if len(line) > maxLine {
			em.Emit(fileFinding(r.ID(), Info, f, ln,
				fmt.Sprintf("line exceeds %d columns (%d)", maxLine, len(line)), refStyle))
		}
		if strings.Contains(line, "\t") {
			em.Emit(fileFinding(r.ID(), Info, f, ln,
				"tab character used for indentation", refStyle))
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "{" && i > 0 && strings.TrimSpace(lines[i-1]) != "" &&
			!strings.HasSuffix(strings.TrimSpace(lines[i-1]), "{") {
			em.Emit(fileFinding(r.ID(), Info, f, ln,
				"opening brace on its own line (style guide attaches braces)", refStyle))
		}
	}
}

// Fuse implements Rule.
func (r *StyleRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnUnit(r.scanUnit)
}

// NamingRule enforces Google-style naming: types CamelCase; functions
// CamelCase (or lower_snake for C files); variables lower_snake; constants
// and globals prefixed (kConst / g_global); class members trailing "_".
type NamingRule struct{}

var refNaming = iso26262.Ref{Table: iso26262.TableCoding, Item: 8}

// ID implements Rule.
func (*NamingRule) ID() string { return "naming" }

// Describe implements Rule.
func (*NamingRule) Describe() string {
	return "use naming conventions (ISO26262-6 T1.8)"
}

// Check implements Rule.
func (r *NamingRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, tu := range ctx.sortedUnits() {
		walkDeclNodes(tu, func(n ccast.Node) { r.declFindings(tu, n, em) })
	}
	return em.out
}

// declFindings checks one declaration-level node against the conventions.
func (r *NamingRule) declFindings(tu *ccast.TranslationUnit, n ccast.Node, em *Emitter) {
	isC := tu.File.Lang == srcfile.LangC
	switch n := n.(type) {
	case *ccast.RecordDecl:
		if n.Name != "" && !isCamelCase(n.Name) {
			em.Emit(fileFinding(r.ID(), Warning, tu.File, n.Span().Start.Line,
				fmt.Sprintf("type %q should be CamelCase", n.Name), refNaming))
		}
	case *ccast.EnumDecl:
		if n.Name != "" && !isCamelCase(n.Name) {
			em.Emit(fileFinding(r.ID(), Warning, tu.File, n.Span().Start.Line,
				fmt.Sprintf("enum %q should be CamelCase", n.Name), refNaming))
		}
	case *ccast.FuncDecl:
		base := UnqualifiedName(n.Name)
		if base == "" || strings.HasPrefix(base, "~") || base == "main" {
			return
		}
		if isC || n.IsKernel() {
			if !isLowerSnake(base) {
				em.Emit(fileFinding(r.ID(), Warning, tu.File, n.Span().Start.Line,
					fmt.Sprintf("C function %q should be lower_snake_case", base), refNaming))
			}
		} else if !isCamelCase(base) && !isLowerSnake(base) {
			em.Emit(fileFinding(r.ID(), Warning, tu.File, n.Span().Start.Line,
				fmt.Sprintf("function %q violates naming conventions", base), refNaming))
		}
	}
}

// Fuse implements Rule.
func (r *NamingRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnDecl(r.declFindings)
}

func isCamelCase(s string) bool {
	if s == "" || s[0] < 'A' || s[0] > 'Z' {
		return false
	}
	return !strings.Contains(s, "_")
}

func isLowerSnake(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			return false
		}
	}
	return true
}
