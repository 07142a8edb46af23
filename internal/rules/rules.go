// Package rules implements the static checkers behind the paper's
// compliance findings: MISRA-inspired language-subset rules, strong-typing
// and conversion checks, dynamic-memory and pointer restrictions,
// structural rules (single exit, no goto, no recursion), defensive
// programming detection, and naming/style conformance. Every finding is
// tagged with the ISO 26262-6 table row it evidences.
package rules

import (
	"fmt"
	"sort"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/iso26262"
	"repro/internal/srcfile"
)

// Severity grades findings.
type Severity int

// Severity levels.
const (
	// Info findings are observations, not violations.
	Info Severity = iota
	// Warning findings are violations that may be justified.
	Warning
	// Violation findings contradict a highly recommended practice.
	Violation
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	default:
		return "violation"
	}
}

// Finding is one diagnostic.
type Finding struct {
	RuleID   string
	Severity Severity
	File     string
	Module   string
	Line     int
	Msg      string
	// Refs are the ISO 26262-6 table rows this finding evidences.
	Refs []iso26262.Ref
	// Function is the enclosing function name, when applicable.
	Function string
}

// String renders the finding as path:line: [rule] message.
func (f *Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.RuleID, f.Msg)
}

// FuncInfo is the per-function context shared by rules. It IS the
// artifact cache's record (a type alias): the fields rules read — Decl,
// File, Module, Callees (unqualified), CCN, Returns — are computed once
// in the artifact analysis walk, so building a rules context performs no
// per-function work at all. Earlier revisions copied every record into a
// rules-local mirror struct on every context build, which made warm
// re-assessment O(corpus); the alias removes that layer entirely.
type FuncInfo = artifact.Func

// Context carries the parsed corpus plus cross-file indexes that
// corpus-level rules (recursion, return-value checking) need.
type Context struct {
	Units map[string]*ccast.TranslationUnit
	// Funcs lists every function definition in path order.
	Funcs []*FuncInfo
	// ByName indexes function definitions by unqualified name. Multiple
	// definitions with the same name keep the first.
	ByName map[string]*FuncInfo
	// GlobalNames maps file-scope variable names to their module.
	GlobalNames map[string]string
	// Index is the shared artifact cache the context was built from.
	Index *artifact.Index
	// unitFuncs maps each unit path to its FuncInfos in source order.
	unitFuncs map[string][]*FuncInfo
}

// NewContext builds the shared indexes over parsed units.
func NewContext(units map[string]*ccast.TranslationUnit) *Context {
	return NewContextFromIndex(artifact.Build(units))
}

// NewContextFromIndex adapts a prebuilt artifact index into the rules
// context. Because FuncInfo aliases the artifact record, this is a thin
// view: the function list, name index, global-name map, and per-unit
// lists are shared with the index (O(1), no copying). After an
// Index.Apply, build a fresh context — it is free — rather than reusing
// an old one (Apply replaces the slices it rebuilds), and never read a
// context concurrently with Apply.
func NewContextFromIndex(ix *artifact.Index) *Context {
	return &Context{
		Units:       ix.Units,
		Funcs:       ix.Funcs,
		ByName:      ix.ByName,
		GlobalNames: ix.GlobalNames,
		Index:       ix,
		unitFuncs:   ix.UnitFuncsMap(),
	}
}

// sortedUnits returns the corpus translation units in path order.
// Rule traversals that emit findings must iterate units through this
// (not by ranging ctx.Units directly) so each rule's emission order is
// deterministic on its own, independent of the caller's final sort.
func (ctx *Context) sortedUnits() []*ccast.TranslationUnit {
	paths := make([]string, 0, len(ctx.Units))
	for p := range ctx.Units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	units := make([]*ccast.TranslationUnit, 0, len(paths))
	for _, p := range paths {
		units = append(units, ctx.Units[p])
	}
	return units
}

// Rule is one checker. Check and Fuse are two implementations of the
// same analysis: the engine runs Fuse, and RunSequential runs Check as
// the independent reference the engine is equivalence-tested against.
type Rule interface {
	// ID is a short stable identifier, e.g. "cast".
	ID() string
	// Describe is a one-line human description.
	Describe() string
	// Check runs the rule over the whole context.
	Check(ctx *Context) []Finding
	// Fuse registers the rule's event subscriptions with the fused
	// engine. Called once per worker; closures may carry per-function
	// mutable state.
	Fuse(rg *Registrar, ctx *Context)
}

// DefaultRules returns the full checker set in a stable order.
func DefaultRules() []Rule {
	return []Rule{
		&ComplexityRule{Threshold: 10},
		&LanguageSubsetRule{},
		&MISRAExtraRule{},
		&CastRule{},
		&ImplicitConversionRule{},
		&DefensiveRule{},
		&GlobalVarRule{},
		&StyleRule{},
		&NamingRule{},
		&MultiExitRule{},
		&DynamicMemoryRule{},
		&UninitializedRule{},
		&ShadowRule{},
		&PointerRule{},
		&GotoRule{},
		&RecursionRule{},
	}
}

// Run executes rules over the context, returning all findings sorted by
// file then line then rule: one cold run of a fresh sharded engine.
func Run(ctx *Context, rs []Rule) []Finding {
	return NewSharded(rs).Run(ctx)
}

// RunSequential is the seed engine: every rule performs its own pass over
// the whole corpus. Kept as the reference implementation the fused engine
// is equivalence-tested against.
func RunSequential(ctx *Context, rs []Rule) []Finding {
	// Pre-size for the finding density observed on AD-scale corpora
	// (roughly one finding per three corpus functions per rule).
	out := make([]Finding, 0, 16+len(rs)*len(ctx.Funcs)/3)
	for _, r := range rs {
		out = append(out, r.Check(ctx)...)
	}
	sortFindings(out)
	return out
}

// findingLess is the total order over findings: file, line, rule, then
// the remaining fields, so equal-key findings from different passes land
// identically however the engine scheduled them.
func findingLess(a, b *Finding) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.RuleID != b.RuleID {
		return a.RuleID < b.RuleID
	}
	if a.Msg != b.Msg {
		return a.Msg < b.Msg
	}
	if a.Function != b.Function {
		return a.Function < b.Function
	}
	return a.Severity < b.Severity
}

// sortFindings sorts findings under the findingLess total order.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool { return findingLess(&out[i], &out[j]) })
}

// UnqualifiedName strips namespace/class qualifiers.
func UnqualifiedName(name string) string { return artifact.Unqualified(name) }

// CalleeName extracts the called name from a call expression, stripping
// qualifiers (the artifact cache keeps the raw spelling; rules match on
// unqualified names).
func CalleeName(c *ccast.Call) string {
	return UnqualifiedName(artifact.CalleeName(c))
}

// finding is a small constructor helper for rules.
func finding(rule string, sev Severity, fi *FuncInfo, line int, msg string, refs ...iso26262.Ref) Finding {
	f := Finding{RuleID: rule, Severity: sev, Line: line, Msg: msg, Refs: refs}
	if fi != nil {
		f.File = fi.File.Path
		f.Module = fi.Module
		f.Function = fi.Decl.Name
	}
	return f
}

// fileFinding constructs a finding not tied to a function.
func fileFinding(rule string, sev Severity, file *srcfile.File, line int, msg string, refs ...iso26262.Ref) Finding {
	return Finding{
		RuleID: rule, Severity: sev, File: file.Path,
		Module: file.ModuleName(), Line: line, Msg: msg, Refs: refs,
	}
}
