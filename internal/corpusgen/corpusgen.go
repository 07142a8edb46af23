// Package corpusgen is the scenario-scale corpus generator behind the
// differential verification harness (internal/difftest, cmd/adfuzz): a
// seeded, deterministic synthesizer of Apollo-shaped C/C++/CUDA source
// trees with tunable scale (modules, files, functions per file, call
// fan-out, nesting depth) and — unlike internal/apollocorpus, which only
// calibrates aggregate statistics — **injectable rule violations with
// known ground truth**. Every generated corpus carries a Manifest listing
// exactly which findings each of the default rules must report (rule ID,
// file, line), so an assessment can be checked against an oracle instead
// of only against another engine.
//
// The generator is built on two invariants:
//
//  1. Clean base: filler functions, their intra-file call fan-out (always
//     a DAG), and the file scaffolding trigger ZERO findings under
//     rules.DefaultRules(). TestCleanBaseHasNoFindings pins this.
//  2. Exact injection: each violation template registers its expected
//     findings at the exact lines it emits, through the same line-tracking
//     emitter that produces the source text. TestOracleExact pins the
//     multiset equality { engine findings } == { manifest }.
//
// Every function and global name embeds a per-file slug, so names are
// unique corpus-wide and per-file findings stay a function of file
// content alone — which is exactly what the incremental engine's per-file
// cache assumes, and what lets Mutate regenerate one file (add / edit /
// remove) together with only that file's manifest entries.
package corpusgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/srcfile"
)

// Params tunes the shape and scale of a generated corpus.
type Params struct {
	// Modules is the number of AD modules (default 4, max 10 named ones
	// then synthetic names).
	Modules int
	// FilesPerModule is the initial number of C++ files per module
	// (default 4).
	FilesPerModule int
	// FuncsPerFile is the number of clean filler functions per file
	// (default 5).
	FuncsPerFile int
	// FanOut is the maximum number of same-file callees per filler
	// function; calls always target higher-indexed functions so the call
	// graph is a DAG (default 2).
	FanOut int
	// MaxDepth bounds the nesting depth of clean filler bodies
	// (default 3).
	MaxDepth int
	// ViolationsPerFile is the number of violation snippets injected per
	// file (default 3). Zero yields a finding-free corpus.
	ViolationsPerFile int
	// CUDAFiles is the number of CUDA files per module (default 1). CUDA
	// files carry a fixed kernel template whose findings (kernel subset,
	// launches, device allocation, pointer params) are fully manifested.
	CUDAFiles int
	// ModuleSkew skews the initial C++ file counts across modules with a
	// zipf-ish fan: module i receives a share proportional to
	// 1/(i+1)^ModuleSkew of Modules×FilesPerModule total files (largest-
	// remainder rounding, at least one file per module). Zero (the
	// default) keeps the historical uniform layout byte-identical.
	// Shard-imbalance scenarios — one huge module, a long tail of tiny
	// ones — are what the sharded incremental pipeline has to survive,
	// so the knob makes them generatable and replayable.
	ModuleSkew float64
	// CrossFile adds the cross-file mutation kinds (crossfile.go) to
	// Mutate's draw: files that read other files' function voidness,
	// globals, and call-graph edges. It changes no generated file and
	// no mutation sequence while off.
	CrossFile bool
}

// DefaultParams mirrors a small Apollo-like tree suitable for fuzz steps.
func DefaultParams() Params {
	return Params{
		Modules:           4,
		FilesPerModule:    4,
		FuncsPerFile:      5,
		FanOut:            2,
		MaxDepth:          3,
		ViolationsPerFile: 3,
		CUDAFiles:         1,
	}
}

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Modules <= 0 {
		p.Modules = d.Modules
	}
	if p.FilesPerModule <= 0 {
		p.FilesPerModule = d.FilesPerModule
	}
	if p.FuncsPerFile < 0 {
		p.FuncsPerFile = d.FuncsPerFile
	}
	if p.FanOut < 0 {
		p.FanOut = d.FanOut
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = d.MaxDepth
	}
	if p.ViolationsPerFile < 0 {
		p.ViolationsPerFile = d.ViolationsPerFile
	}
	if p.CUDAFiles < 0 {
		p.CUDAFiles = d.CUDAFiles
	}
	if p.ModuleSkew < 0 {
		p.ModuleSkew = 0
	}
	return p
}

// moduleFileCounts returns the initial C++ file count per module under
// the skew knob. Skew 0 is exactly FilesPerModule everywhere; positive
// skew distributes Modules×FilesPerModule files by weights (i+1)^-skew
// with largest-remainder rounding (deterministic, total preserved) and
// a floor of one file per module.
func moduleFileCounts(modules, filesPerModule int, skew float64) []int {
	counts := make([]int, modules)
	if skew == 0 {
		for i := range counts {
			counts[i] = filesPerModule
		}
		return counts
	}
	total := modules * filesPerModule
	weights := make([]float64, modules)
	sum := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -skew)
		sum += weights[i]
	}
	remaining := total - modules // one file per module is guaranteed
	if remaining < 0 {
		remaining = 0
	}
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, modules)
	assigned := 0
	for i := range counts {
		share := float64(remaining) * weights[i] / sum
		whole := int(share)
		counts[i] = 1 + whole
		assigned += whole
		rems[i] = rem{i, share - float64(whole)}
	}
	// Hand the leftover files to the largest remainders; ties break on
	// the lower module index so the layout is deterministic.
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < remaining-assigned; k++ {
		counts[rems[k%modules].i]++
	}
	return counts
}

// moduleNames are the AD pipeline modules of the paper's Figure 1;
// indexes beyond the list get synthetic names.
var moduleNames = []string{
	"perception", "planning", "prediction", "localization", "control",
	"map", "routing", "canbus", "drivers", "common",
}

func moduleName(i int) string {
	if i < len(moduleNames) {
		return moduleNames[i]
	}
	return fmt.Sprintf("module%02d", i)
}

// Expect is one ground-truth finding the rule engine must report.
type Expect struct {
	Rule string
	Path string
	Line int
}

// String renders the expectation as path:line:[rule].
func (e Expect) String() string {
	return fmt.Sprintf("%s:%d:[%s]", e.Path, e.Line, e.Rule)
}

// Manifest is the injected-violation ground truth of a generated corpus:
// for every file, the exact findings the default rule set must produce.
type Manifest struct {
	// PerFile maps each corpus path to its expected findings in line
	// order. Paths with no expected findings are present with a nil
	// slice, so the key set mirrors the corpus.
	PerFile map[string][]Expect
}

// All returns every expectation across the corpus (unordered).
func (m *Manifest) All() []Expect {
	var out []Expect
	for _, es := range m.PerFile {
		out = append(out, es...)
	}
	return out
}

// Total returns the number of expected findings.
func (m *Manifest) Total() int {
	n := 0
	for _, es := range m.PerFile {
		n += len(es)
	}
	return n
}

// CountByRule returns the expected finding count per rule ID.
func (m *Manifest) CountByRule() map[string]int {
	out := make(map[string]int)
	for _, es := range m.PerFile {
		for _, e := range es {
			out[e.Rule]++
		}
	}
	return out
}

// clone deep-copies the manifest.
func (m *Manifest) clone() *Manifest {
	out := &Manifest{PerFile: make(map[string][]Expect, len(m.PerFile))}
	for p, es := range m.PerFile {
		out.PerFile[p] = append([]Expect(nil), es...)
	}
	return out
}

// Generator holds the evolving corpus state: current file contents, the
// matching manifest, and monotonic per-module file counters so removed
// paths are never reused. All randomness flows from the seed passed to
// New, so a (Params, seed) pair replays the identical corpus and the
// identical mutation sequence.
type Generator struct {
	p   Params
	rng *rand.Rand

	src  map[string]string // path → content
	man  *Manifest
	next map[string]int // module → next file ordinal (monotonic)
	mods []string       // module names in order

	paths []string // current paths in insertion order (deterministic)

	cross crossState // cross-file files (Params.CrossFile)
}

// New builds the initial corpus for the given params and seed.
func New(p Params, seed int64) *Generator {
	p = p.withDefaults()
	g := &Generator{
		p:    p,
		rng:  rand.New(rand.NewSource(seed)),
		src:  make(map[string]string),
		man:  &Manifest{PerFile: make(map[string][]Expect)},
		next: make(map[string]int),
	}
	for mi := 0; mi < p.Modules; mi++ {
		g.mods = append(g.mods, moduleName(mi))
	}
	counts := moduleFileCounts(p.Modules, p.FilesPerModule, p.ModuleSkew)
	for mi, mod := range g.mods {
		for fi := 0; fi < counts[mi]; fi++ {
			g.addFile(mod, mi, false)
		}
		for ci := 0; ci < p.CUDAFiles; ci++ {
			g.addFile(mod, mi, true)
		}
	}
	return g
}

// Paths returns the current corpus paths in deterministic order.
func (g *Generator) Paths() []string { return append([]string(nil), g.paths...) }

// Len returns the current number of files.
func (g *Generator) Len() int { return len(g.paths) }

// FileSet materializes the current corpus as a fresh srcfile.FileSet.
// Each call builds new File values, so callers may hand the set to an
// Assessor (which mutates File structs in place) without coupling state.
func (g *Generator) FileSet() *srcfile.FileSet {
	fs := srcfile.NewFileSet()
	for _, p := range g.paths {
		fs.AddSource(p, g.src[p])
	}
	return fs
}

// Manifest returns a snapshot of the current ground truth.
func (g *Generator) Manifest() *Manifest { return g.man.clone() }

// Source returns the current content of one path ("" when absent).
func (g *Generator) Source(path string) string { return g.src[path] }

// ---------------------------------------------------------------------------
// Mutation

// MutationKind enumerates corpus edits.
type MutationKind string

// Mutation kinds.
const (
	MutAdd    MutationKind = "add"
	MutEdit   MutationKind = "edit"
	MutRemove MutationKind = "remove"
)

// Mutation is one corpus edit the generator applied to its own state;
// callers mirror it into the systems under test.
type Mutation struct {
	Kind MutationKind
	Path string
	// Src is the new content for add/edit ("" for remove).
	Src string
}

// Mutate applies one random edit (add / edit / remove a file, plus the
// cross-file kinds when Params.CrossFile is set) to the generator's
// corpus and manifest, returning the applied mutation. The corpus never
// drops below one file.
func (g *Generator) Mutate() Mutation {
	n := 3
	if g.p.CrossFile {
		n += len(crossKinds)
	}
	k := g.rng.Intn(n)
	if k >= 3 {
		return g.mutateCross(crossKinds[k-3])
	}
	pool := g.plainPaths()
	if len(pool) <= 1 && k == 2 {
		k = g.rng.Intn(2) // never remove the last plain file
	}
	switch k {
	case 0: // add a fresh file to a random module
		mi := g.rng.Intn(len(g.mods))
		cuda := g.p.CUDAFiles > 0 && g.rng.Intn(4) == 0
		path := g.addFile(g.mods[mi], mi, cuda)
		return Mutation{Kind: MutAdd, Path: path, Src: g.src[path]}
	case 1: // regenerate an existing file under a fresh seed
		path := pool[g.rng.Intn(len(pool))]
		mi, ord, cuda := parsePath(path)
		src, expects := g.synthFile(g.mods[mi], mi, ord, cuda, g.rng.Int63())
		g.src[path] = src
		g.man.PerFile[path] = expects
		return Mutation{Kind: MutEdit, Path: path, Src: src}
	default: // remove
		path := pool[g.rng.Intn(len(pool))]
		g.removePath(path)
		return Mutation{Kind: MutRemove, Path: path}
	}
}

// addFile synthesizes a new file for a module and registers it.
func (g *Generator) addFile(mod string, mi int, cuda bool) string {
	ord := g.next[mod]
	g.next[mod] = ord + 1
	path := filePath(mod, mi, ord, cuda)
	src, expects := g.synthFile(mod, mi, ord, cuda, g.rng.Int63())
	g.src[path] = src
	g.man.PerFile[path] = expects
	g.paths = append(g.paths, path)
	return path
}

// filePath encodes module index, ordinal, and dialect into the path so a
// mutation can recover them without extra bookkeeping.
func filePath(mod string, mi, ord int, cuda bool) string {
	if cuda {
		return fmt.Sprintf("%s/cuda/%s_kern_m%02df%03d.cu", mod, mod, mi, ord)
	}
	return fmt.Sprintf("%s/%s_m%02df%03d.cc", mod, mod, mi, ord)
}

// parsePath recovers (module index, ordinal, cuda) from a generated
// path. The scan uses unbounded %d (not the %02d/%03d print widths):
// Sscanf widths are maximums, and ordinals past 999 — reachable at the
// 10k-file scale — must round-trip exactly or an edit mutation would
// regenerate the file under a colliding slug.
func parsePath(path string) (mi, ord int, cuda bool) {
	cuda = strings.HasSuffix(path, ".cu")
	base := path[strings.LastIndexByte(path, '_')+1:]
	base = strings.TrimSuffix(strings.TrimSuffix(base, ".cc"), ".cu")
	fmt.Sscanf(base, "m%df%d", &mi, &ord)
	return mi, ord, cuda
}

// slug returns the per-file identity embedded in every name the file
// defines. CamelCase-safe (no underscores) for C++ names; lowerSlug is
// the variant for CUDA kernels and globals.
func slug(mi, ord int) string      { return fmt.Sprintf("M%dX%d", mi, ord) }
func lowerSlug(mi, ord int) string { return fmt.Sprintf("m%dx%d", mi, ord) }
