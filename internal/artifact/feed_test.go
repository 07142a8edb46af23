package artifact_test

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/srcfile"
)

// parseIn parses one source file filed under an explicit module ("" for
// the path's own).
func parseIn(t *testing.T, path, module, src string) *ccast.TranslationUnit {
	t.Helper()
	f := &srcfile.File{Path: path, Module: module, Lang: srcfile.LanguageForPath(path), Src: src}
	tu, errs := ccparse.Parse(f, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse %s: %v", path, errs[0])
	}
	return tu
}

// refViews are the index's name views derived from parsed units alone,
// without the index: ByName's champion (a fresh Analyze of the first
// definition by sorted path, then source order), FuncModule (the module
// of the last definition) and GlobalNames (the module of the last file
// declaring the variable).
type refViews struct {
	first  map[string]*artifact.Func
	module map[string]string
	global map[string]string
}

func referenceViews(units map[string]*ccast.TranslationUnit) refViews {
	v := refViews{first: map[string]*artifact.Func{}, module: map[string]string{}, global: map[string]string{}}
	for _, p := range artifact.SortedPaths(units) {
		tu := units[p]
		mod := tu.File.ModuleName()
		for _, fn := range tu.Funcs() {
			name := artifact.Unqualified(fn.Name)
			if v.first[name] == nil {
				v.first[name] = artifact.Analyze(fn, tu.File, mod)
			}
			v.module[name] = mod
		}
		for _, vd := range tu.GlobalVars() {
			for _, d := range vd.Names {
				v.global[d.Name] = mod
			}
		}
	}
	return v
}

// feedDiff derives, per name, the change bits a step from was to now
// must record: the champion became defined or undefined or changed its
// callees (GraphChanged), its voidness flipped (ReturnChanged), the last
// definition's module moved (ModuleChanged), the global membership
// changed (GlobalChanged).
func feedDiff(was, now refViews) map[string]artifact.Change {
	names := map[string]bool{}
	for _, v := range []refViews{was, now} {
		for n := range v.module {
			names[n] = true
		}
		for n := range v.global {
			names[n] = true
		}
	}
	nonVoid := func(fa *artifact.Func) bool { return fa != nil && !fa.Void }
	out := map[string]artifact.Change{}
	for n := range names {
		var c artifact.Change
		a, b := was.first[n], now.first[n]
		if (a == nil) != (b == nil) || a != nil && !slices.Equal(a.Callees, b.Callees) {
			c |= artifact.GraphChanged
		}
		if nonVoid(a) != nonVoid(b) {
			c |= artifact.ReturnChanged
		}
		if was.module[n] != now.module[n] {
			c |= artifact.ModuleChanged
		}
		_, hadGlobal := was.global[n]
		_, hasGlobal := now.global[n]
		if hadGlobal != hasGlobal {
			c |= artifact.GlobalChanged
		}
		if c != 0 {
			out[n] = c
		}
	}
	return out
}

// requireReferenceViews checks ByName (path, line, voidness), FuncModule
// for every name seen so far, and GlobalNames against the reference.
func requireReferenceViews(t *testing.T, step string, ix *artifact.Index, ref refViews, seen map[string]bool) {
	t.Helper()
	if len(ix.ByName) != len(ref.first) {
		t.Fatalf("%s: ByName holds %d names, reference %d", step, len(ix.ByName), len(ref.first))
	}
	for n, w := range ref.first {
		g := ix.ByName[n]
		if g == nil {
			t.Fatalf("%s: ByName[%q] missing", step, n)
		}
		if g.File.Path != w.File.Path || g.Line != w.Line || g.Void != w.Void {
			t.Fatalf("%s: ByName[%q] = %s:%d void=%v, reference %s:%d void=%v",
				step, n, g.File.Path, g.Line, g.Void, w.File.Path, w.Line, w.Void)
		}
	}
	for n := range ref.module {
		seen[n] = true
	}
	for n := range seen {
		got, ok := ix.FuncModule(n)
		want, wantOK := ref.module[n]
		if got != want || ok != wantOK {
			t.Fatalf("%s: FuncModule(%q) = %q, %v; reference %q, %v", step, n, got, ok, want, wantOK)
		}
	}
	if !maps.Equal(ix.GlobalNames, ref.global) {
		t.Fatalf("%s: GlobalNames = %v, reference %v", step, ix.GlobalNames, ref.global)
	}
}

// TestApplyFeedMatchesReference checks the name views and the change
// feed against a reference derived from the parsed units alone, after
// Build and after every Apply of a script that covers one name defined
// in three files across interleaved shards (m/a.c is filed under module
// z), an int and a void overload in one unit, and a global declared
// twice in one file and again in another: a body edit, removing the
// first definition and then the last, re-adding a definition with a new
// callee, a voidness flip, a module move, dropping one overload,
// removing and re-adding one path in a single Apply, and emptying a
// shard. A cold build runs the insertion code Apply does, so it cannot
// serve as Apply's oracle; this reference shares no code with the index.
func TestApplyFeedMatchesReference(t *testing.T) {
	const (
		a0 = "int ga;\nint ga;\nint dup(int x) { return x; }\n"
		b0 = "int ga;\nint ov(int x) { return x; }\nvoid ov(double y) { (void)y; }\nint dup(int x) { return ov(x); }\n"
		c0 = "int gz;\nint dup(int x) { return x + 1; }\nint fz(void) { return dup(1); }\n"
		d0 = "int gn;\nvoid fn(void) { }\n"
	)
	cur := map[string]*ccast.TranslationUnit{
		"m/a.c":  parseIn(t, "m/a.c", "z", a0),
		"m/b.cc": parseIn(t, "m/b.cc", "", b0),
		"z/c.c":  parseIn(t, "z/c.c", "", c0),
		"n/d.c":  parseIn(t, "n/d.c", "", d0),
	}
	ix := artifact.Build(maps.Clone(cur))
	seen := map[string]bool{}
	ref := referenceViews(cur)
	requireReferenceViews(t, "build", ix, ref, seen)

	type step struct {
		what     string
		upserts  []*ccast.TranslationUnit
		removals []string
	}
	for _, s := range []step{
		{what: "body edit of the champion", upserts: []*ccast.TranslationUnit{
			parseIn(t, "m/a.c", "z", "int ga;\nint ga;\nint dup(int x) { return x * 2; }\n")}},
		{what: "remove the first definition", removals: []string{"m/a.c"}},
		{what: "remove the last definition", removals: []string{"z/c.c"}},
		{what: "re-add a definition with a new callee", upserts: []*ccast.TranslationUnit{
			parseIn(t, "m/a.c", "z", "int dup(int x) { return helper(x); }\nint helper(int x) { return x; }\n")}},
		{what: "voidness flip", upserts: []*ccast.TranslationUnit{
			parseIn(t, "m/a.c", "z", "void dup(int x) { helper(x); }\nint helper(int x) { return x; }\n")}},
		{what: "module move", upserts: []*ccast.TranslationUnit{parseIn(t, "m/b.cc", "q", b0)}},
		{what: "drop one overload", upserts: []*ccast.TranslationUnit{
			parseIn(t, "m/b.cc", "q", "int ga;\nvoid ov(double y) { (void)y; }\nint dup(int x) { return x; }\n")}},
		{what: "remove and re-add one path", removals: []string{"m/b.cc"},
			upserts: []*ccast.TranslationUnit{parseIn(t, "m/b.cc", "q", b0)}},
		{what: "empty a shard", removals: []string{"n/d.c"}},
	} {
		for _, p := range s.removals {
			delete(cur, p)
		}
		for _, tu := range s.upserts {
			cur[tu.File.Path] = tu
		}
		gen := ix.Gen()
		applyUnits(ix, s.upserts, s.removals)
		was := ref
		ref = referenceViews(cur)
		requireReferenceViews(t, s.what, ix, ref, seen)

		feed, ok := ix.ChangesSince(gen)
		if !ok {
			t.Fatalf("%s: feed dropped the step's entries", s.what)
		}
		got := map[string]artifact.Change{}
		for _, c := range feed {
			if _, dup := got[c.Name]; dup || c.Gen != ix.Gen() {
				t.Fatalf("%s: feed entry %+v repeats a name or has the wrong generation", s.what, c)
			}
			got[c.Name] = c.What
		}
		if want := feedDiff(was, ref); !maps.Equal(got, want) {
			t.Fatalf("%s: feed recorded %v, reference diff %v", s.what, got, want)
		}
	}
	if ix.Shard("n") != nil || ix.Shard("m") != nil {
		t.Fatalf("emptied shards remain: n=%v m=%v", ix.Shard("n"), ix.Shard("m"))
	}
}
