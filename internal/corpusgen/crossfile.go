package corpusgen

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the cross-file mutation kinds (Params.CrossFile).
// Every other generated file reads only its own names, so the oracle
// cannot see a missed cross-file dependency on those; here two roles of
// file read each other's facts:
//
//   - a target file defines XTarget<slug> (non-void or void), a global
//     g_<slug>_xshared, and XLoop<slug>, which calls XPartner<slug>;
//   - a reader file of a target calls XTarget<target> in an expression
//     statement (defensive: ignored return, iff the target is defined and
//     non-void), declares a local named after the target's global
//     (shadow, iff the global exists), and defines XPartner<target>,
//     which calls XLoop<target> — a two-file call cycle (recursion on
//     both definitions, iff XLoop is defined and this reader's XPartner
//     is the first definition in path order).
//
// Mutations add targets and readers, rename a target's three names,
// flip its XTarget between non-void and void, and remove either role.
// After every mutation the manifest of every cross-file file is
// recomputed from this model, so it stays exact for every dependent
// file. Plain add/edit/remove mutations never touch cross-file files.

// Cross-file mutation kinds.
const (
	MutXTarget MutationKind = "xtarget"
	MutXReader MutationKind = "xreader"
	MutXRename MutationKind = "xrename"
	MutXFlip   MutationKind = "xflip"
	MutXRemove MutationKind = "xremove"
)

// crossKinds lists the cross-file kinds in the order Mutate draws them.
var crossKinds = []MutationKind{MutXTarget, MutXReader, MutXRename, MutXFlip, MutXRemove}

// Removal reports whether the mutation deletes its path.
func (m Mutation) Removal() bool { return m.Kind == MutRemove || m.Kind == MutXRemove }

// xfile is one live cross-file file.
type xfile struct {
	mod    string
	mi     int
	ord    int
	reader bool
	// target is the slug of the target a reader reads; a target's own.
	target string
	// void and renamed are a target's state.
	void    bool
	renamed bool
	// Lines of the fact-bearing declarations in the current source.
	globalLine, loopLine            int // target
	callLine, shadowLine, partnLine int // reader
}

// crossState is the generator's model of its cross-file files.
type crossState struct {
	files   map[string]*xfile // live cross-file paths
	targets []string          // every target slug ever created, in order
}

// plainPaths returns the paths plain mutations may pick: every path but
// the cross-file ones (all paths, and the same slice, when there are
// none, so plain mutations replay unchanged).
func (g *Generator) plainPaths() []string {
	if len(g.cross.files) == 0 {
		return g.paths
	}
	out := make([]string, 0, len(g.paths))
	for _, p := range g.paths {
		if g.cross.files[p] == nil {
			out = append(out, p)
		}
	}
	return out
}

// removePath drops path from the corpus and its manifest.
func (g *Generator) removePath(path string) {
	for i, p := range g.paths {
		if p == path {
			g.paths = append(g.paths[:i], g.paths[i+1:]...)
			break
		}
	}
	delete(g.src, path)
	delete(g.man.PerFile, path)
}

// liveCross returns the live cross-file paths (readers too when
// withReaders) in insertion order.
func (g *Generator) liveCross(withReaders bool) []string {
	var out []string
	for _, p := range g.paths {
		if x := g.cross.files[p]; x != nil && (withReaders || !x.reader) {
			out = append(out, p)
		}
	}
	return out
}

// mutateCross applies one cross-file mutation of kind k.
func (g *Generator) mutateCross(k MutationKind) Mutation {
	targets := g.liveCross(false)
	if len(targets) == 0 && (k == MutXRename || k == MutXFlip) {
		k = MutXTarget
	}
	if len(g.cross.targets) == 0 && k == MutXReader {
		k = MutXTarget
	}
	if k == MutXRemove && len(g.liveCross(true)) == 0 {
		k = MutXTarget
	}
	var path string
	switch k {
	case MutXTarget:
		mi := g.rng.Intn(len(g.mods))
		path = g.addCross(&xfile{mi: mi, void: g.rng.Intn(2) == 0})
	case MutXReader:
		mi := g.rng.Intn(len(g.mods))
		target := g.cross.targets[g.rng.Intn(len(g.cross.targets))]
		path = g.addCross(&xfile{mi: mi, reader: true, target: target})
	case MutXRename, MutXFlip:
		path = targets[g.rng.Intn(len(targets))]
		x := g.cross.files[path]
		if k == MutXRename {
			x.renamed = !x.renamed
		} else {
			x.void = !x.void
		}
		g.src[path] = g.renderCross(x)
	default: // MutXRemove
		live := g.liveCross(true)
		path = live[g.rng.Intn(len(live))]
		delete(g.cross.files, path)
		g.removePath(path)
	}
	g.refreshCrossManifest()
	return Mutation{Kind: k, Path: path, Src: g.src[path]}
}

// addCross registers a new cross-file file under a fresh ordinal of its
// module and returns its path.
func (g *Generator) addCross(x *xfile) string {
	x.mod = g.mods[x.mi]
	x.ord = g.next[x.mod]
	g.next[x.mod] = x.ord + 1
	if !x.reader {
		x.target = slug(x.mi, x.ord)
		g.cross.targets = append(g.cross.targets, x.target)
	}
	path := filePath(x.mod, x.mi, x.ord, false)
	if g.cross.files == nil {
		g.cross.files = make(map[string]*xfile)
	}
	g.cross.files[path] = x
	g.src[path] = g.renderCross(x)
	g.paths = append(g.paths, path)
	return path
}

// renderCross renders a cross-file file from its state, recording the
// lines of its fact-bearing declarations.
func (g *Generator) renderCross(x *xfile) string {
	e := &emitter{path: filePath(x.mod, x.mi, x.ord, false)}
	ts, lts := x.target, strings.ToLower(x.target)
	if x.reader {
		sl := slug(x.mi, x.ord)
		e.emit(fmt.Sprintf("// Generated cross-file reader: module %s, slug %s, target %s.", x.mod, sl, ts))
		e.blank()
		e.emit(fmt.Sprintf("void XReader%s(float scale, int mode) {", sl))
		e.emit(fmt.Sprintf("  XTarget%s(scale, mode);", ts))
		x.callLine = e.line
		e.emit(fmt.Sprintf("  float g_%s_xshared = scale + (0.5f * mode);", lts))
		x.shadowLine = e.line
		e.emit("}")
		e.blank()
		e.emit(fmt.Sprintf("float XPartner%s(float depth, int mode) {", ts))
		x.partnLine = e.line
		e.emit("  float acc = depth;")
		e.emit("  if (mode > 0) {")
		e.emit(fmt.Sprintf("    acc = XLoop%s(acc, mode - 1);", ts))
		e.emit("  }")
		e.emit("  return acc;")
		e.emit("}")
		return e.sb.String()
	}
	r := ""
	if x.renamed {
		r = "R"
	}
	e.emit(fmt.Sprintf("// Generated cross-file target: module %s, slug %s.", x.mod, ts))
	e.blank()
	if x.void {
		e.emit(fmt.Sprintf("void XTarget%s%s(float scale, int mode) {", r, ts))
		e.emit("  float acc = scale + (0.5f * mode);")
		e.emit("  acc = acc + 1.0f;")
	} else {
		e.emit(fmt.Sprintf("float XTarget%s%s(float scale, int mode) {", r, ts))
		e.emit("  float acc = scale + (0.5f * mode);")
		e.emit("  return acc;")
	}
	e.emit("}")
	e.blank()
	e.emit(fmt.Sprintf("float g_%s_xshared%s = 0.0f;", lts, strings.ToLower(r)))
	x.globalLine = e.line
	e.blank()
	e.emit(fmt.Sprintf("float XLoop%s%s(float depth, int mode) {", r, ts))
	x.loopLine = e.line
	e.emit("  float acc = depth;")
	e.emit("  if (mode > 0) {")
	e.emit(fmt.Sprintf("    acc = XPartner%s(acc, mode - 1);", ts))
	e.emit("  }")
	e.emit("  return acc;")
	e.emit("}")
	return e.sb.String()
}

// refreshCrossManifest recomputes the expected findings of every live
// cross-file file from the current model.
func (g *Generator) refreshCrossManifest() {
	// Per target slug: its live target file (nil when removed) and the
	// first live reader in path order (the XPartner champion).
	type targetView struct {
		target *xfile
		first  string
	}
	views := make(map[string]*targetView)
	view := func(ts string) *targetView {
		v := views[ts]
		if v == nil {
			v = &targetView{}
			views[ts] = v
		}
		return v
	}
	paths := g.liveCross(true)
	sort.Strings(paths)
	for _, p := range paths {
		x := g.cross.files[p]
		v := view(x.target)
		if !x.reader {
			v.target = x
		} else if v.first == "" {
			v.first = p
		}
	}
	for _, p := range paths {
		x := g.cross.files[p]
		v := views[x.target]
		named := v.target != nil && !v.target.renamed // base names defined
		cycle := named && v.first != ""
		var es []Expect
		add := func(rule string, line int) {
			es = append(es, Expect{Rule: rule, Path: p, Line: line})
		}
		if x.reader {
			if named && !v.target.void {
				add("defensive", x.callLine)
			}
			if named {
				add("shadow", x.shadowLine)
			}
			if cycle && v.first == p {
				add("recursion", x.partnLine)
			}
		} else {
			add("global-var", x.globalLine)
			if cycle {
				add("recursion", x.loopLine)
			}
		}
		sort.Slice(es, func(i, j int) bool { return es[i].Line < es[j].Line })
		g.man.PerFile[p] = es
	}
}
