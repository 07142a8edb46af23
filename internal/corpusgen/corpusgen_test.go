package corpusgen

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"repro/internal/ccparse"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// parseAll parses a generated corpus, failing the test on any parse error
// (generated sources must be clean input for the frontend).
func parseAll(t *testing.T, fs *srcfile.FileSet) *rules.Context {
	t.Helper()
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("generated corpus has parse errors: %v (of %d)", errs[0], len(errs))
	}
	return rules.NewContext(units)
}

// toExpects projects engine findings onto the manifest key space.
func toExpects(fs []rules.Finding) []Expect {
	out := make([]Expect, len(fs))
	for i, f := range fs {
		out[i] = Expect{Rule: f.RuleID, Path: f.File, Line: f.Line}
	}
	return out
}

// diffMultiset compares two expectation multisets and returns a
// human-readable diff ("" when equal).
func diffMultiset(got, want []Expect) string {
	count := make(map[Expect]int)
	for _, e := range want {
		count[e]++
	}
	var extra []string
	for _, e := range got {
		if count[e] > 0 {
			count[e]--
			continue
		}
		extra = append(extra, e.String())
	}
	var missing []string
	for e, n := range count {
		for i := 0; i < n; i++ {
			missing = append(missing, e.String())
		}
	}
	if len(extra) == 0 && len(missing) == 0 {
		return ""
	}
	sort.Strings(extra)
	sort.Strings(missing)
	return fmt.Sprintf("unexpected findings (%d): %v\nmissing findings (%d): %v",
		len(extra), extra, len(missing), missing)
}

// TestCleanBaseHasNoFindings pins generator invariant 1: with no injected
// violations and no CUDA template, the corpus is finding-free under the
// full default rule set.
func TestCleanBaseHasNoFindings(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		// Zero ViolationsPerFile/CUDAFiles are honored (withDefaults only
		// fills negative counts).
		g := New(Params{Modules: 3, FilesPerModule: 3, FuncsPerFile: 6,
			FanOut: 3, MaxDepth: 3, CUDAFiles: 0, ViolationsPerFile: 0}, seed)
		ctx := parseAll(t, g.FileSet())
		fs := rules.RunSequential(ctx, rules.DefaultRules())
		if len(fs) != 0 {
			var lines []string
			for i, f := range fs {
				if i >= 10 {
					lines = append(lines, "...")
					break
				}
				lines = append(lines, f.String())
			}
			t.Fatalf("seed %d: clean base produced %d findings:\n%s",
				seed, len(fs), strings.Join(lines, "\n"))
		}
	}
}

// TestOracleExact pins generator invariant 2: the engine's findings over
// a generated corpus equal the manifest exactly, as a multiset of
// (rule, file, line).
func TestOracleExact(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := New(DefaultParams(), seed)
		ctx := parseAll(t, g.FileSet())
		got := toExpects(rules.RunSequential(ctx, rules.DefaultRules()))
		if d := diffMultiset(got, g.Manifest().All()); d != "" {
			t.Fatalf("seed %d: oracle mismatch:\n%s", seed, d)
		}
	}
}

// TestDeterministicReplay: same params + seed → byte-identical corpus and
// identical manifest, including after the same mutation count.
func TestDeterministicReplay(t *testing.T) {
	gen := func() (*Generator, []Mutation) {
		g := New(DefaultParams(), 42)
		var muts []Mutation
		for i := 0; i < 12; i++ {
			muts = append(muts, g.Mutate())
		}
		return g, muts
	}
	g1, m1 := gen()
	g2, m2 := gen()
	if len(m1) != len(m2) {
		t.Fatal("mutation count drifted")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("mutation %d drifted: %+v vs %+v", i, m1[i], m2[i])
		}
	}
	p1, p2 := g1.Paths(), g2.Paths()
	if len(p1) != len(p2) {
		t.Fatalf("path count drifted: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] || g1.Source(p1[i]) != g2.Source(p2[i]) {
			t.Fatalf("file %s drifted", p1[i])
		}
	}
	if d := diffMultiset(g1.Manifest().All(), g2.Manifest().All()); d != "" {
		t.Fatalf("manifest drifted:\n%s", d)
	}
}

// TestMutateKeepsOracle applies a long random mutation sequence and
// re-checks the oracle after every step.
func TestMutateKeepsOracle(t *testing.T) {
	g := New(Params{Modules: 2, FilesPerModule: 3, FuncsPerFile: 4,
		ViolationsPerFile: 2, CUDAFiles: 1}, 7)
	for step := 0; step < 25; step++ {
		mut := g.Mutate()
		ctx := parseAll(t, g.FileSet())
		got := toExpects(rules.RunSequential(ctx, rules.DefaultRules()))
		if d := diffMultiset(got, g.Manifest().All()); d != "" {
			t.Fatalf("step %d (%s %s): oracle mismatch:\n%s", step, mut.Kind, mut.Path, d)
		}
	}
	if g.Len() < 1 {
		t.Fatal("corpus emptied")
	}
}

// TestPathRoundTrip pins filePath/parsePath inversion, including
// ordinals past the %03d print width (reachable at the 10k-file scale):
// a lossy parse would make an edit mutation regenerate a file under a
// colliding slug.
func TestPathRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		mi, ord int
		cuda    bool
	}{{0, 0, false}, {3, 7, true}, {9, 999, false}, {12, 1000, false},
		{19, 4321, true}, {101, 10000, false}} {
		p := filePath(moduleName(tc.mi), tc.mi, tc.ord, tc.cuda)
		mi, ord, cuda := parsePath(p)
		if mi != tc.mi || ord != tc.ord || cuda != tc.cuda {
			t.Errorf("parsePath(%q) = (%d,%d,%v), want (%d,%d,%v)",
				p, mi, ord, cuda, tc.mi, tc.ord, tc.cuda)
		}
	}
}

// TestScaleKnobs sanity-checks that the scale parameters actually scale
// the corpus.
func TestScaleKnobs(t *testing.T) {
	small := New(Params{Modules: 2, FilesPerModule: 2, FuncsPerFile: 2,
		ViolationsPerFile: 1, CUDAFiles: 0}, 1)
	big := New(Params{Modules: 4, FilesPerModule: 10, FuncsPerFile: 8,
		ViolationsPerFile: 4, CUDAFiles: 2}, 1)
	if small.Len() != 4 {
		t.Fatalf("small corpus = %d files", small.Len())
	}
	if big.Len() != 4*12 {
		t.Fatalf("big corpus = %d files", big.Len())
	}
	if big.Manifest().Total() <= small.Manifest().Total() {
		t.Fatal("violation scale knob inert")
	}
	// Every injected rule ID must be a real rule.
	known := make(map[string]bool)
	for _, r := range rules.DefaultRules() {
		known[r.ID()] = true
	}
	for rule := range big.Manifest().CountByRule() {
		if !known[rule] {
			t.Fatalf("manifest references unknown rule %q", rule)
		}
	}
}

// TestModuleSkewLayout pins the skew knob: zero skew preserves the
// historical uniform layout exactly, and a skewed layout is
// deterministic, total-preserving, and actually imbalanced.
func TestModuleSkewLayout(t *testing.T) {
	uniform := New(Params{Modules: 4, FilesPerModule: 4, CUDAFiles: 1}, 26262)
	legacy := New(Params{Modules: 4, FilesPerModule: 4, CUDAFiles: 1, ModuleSkew: 0}, 26262)
	if len(uniform.Paths()) != len(legacy.Paths()) {
		t.Fatal("zero skew changed the corpus size")
	}
	for i, p := range uniform.Paths() {
		if legacy.Paths()[i] != p {
			t.Fatalf("zero skew changed path %d: %s vs %s", i, p, legacy.Paths()[i])
		}
		if uniform.Source(p) != legacy.Source(p) {
			t.Fatalf("zero skew changed content of %s", p)
		}
	}

	counts := moduleFileCounts(5, 10, 1.5)
	total := 0
	for _, n := range counts {
		if n < 1 {
			t.Fatalf("module with %d files; floor is 1", n)
		}
		total += n
	}
	if total != 50 {
		t.Fatalf("skewed counts sum to %d, want 50", total)
	}
	if counts[0] <= counts[4] {
		t.Fatalf("skew produced no imbalance: %v", counts)
	}
}

// skewFingerprint renders a generated corpus as per-module file counts
// plus an FNV-1a hash over the sorted manifest entries.
func skewFingerprint(g *Generator) (map[string]int, int, uint64) {
	perMod := make(map[string]int)
	for _, path := range g.Paths() {
		perMod[path[:strings.IndexByte(path, '/')]]++
	}
	man := g.Manifest()
	entries := make([]string, 0, man.Total())
	for _, e := range man.All() {
		entries = append(entries, e.String())
	}
	sort.Strings(entries)
	h := fnv.New64a()
	for _, e := range entries {
		h.Write([]byte(e))
		h.Write([]byte{0})
	}
	return perMod, man.Total(), h.Sum64()
}

// TestSkewedManifestPinned pins one skewed corpus end to end: the
// per-module layout, the manifest size, the manifest content hash, and
// oracle-exactness of the engine over it. Any change to the generator
// or the skew arithmetic that moves ground truth shows up here.
func TestSkewedManifestPinned(t *testing.T) {
	g := New(Params{Modules: 6, FilesPerModule: 8, FuncsPerFile: 3,
		ViolationsPerFile: 2, CUDAFiles: 1, ModuleSkew: 1.3}, 4242)
	perMod, total, fp := skewFingerprint(g)

	wantLayout := map[string]int{
		"perception": 23, "planning": 10, "prediction": 7,
		"localization": 5, "control": 5, "map": 4,
	}
	if len(perMod) != len(wantLayout) {
		t.Fatalf("module layout = %v, want %v", perMod, wantLayout)
	}
	for m, n := range wantLayout {
		if perMod[m] != n {
			t.Fatalf("module %s has %d files, want %d (layout %v)", m, perMod[m], n, perMod)
		}
	}
	if g.Len() != 54 || total != 181 {
		t.Fatalf("corpus = %d files / %d manifest entries, want 54 / 181", g.Len(), total)
	}
	const wantFP = uint64(0x94775211ac351ee3)
	if fp != wantFP {
		t.Fatalf("manifest fingerprint = %#x, want %#x", fp, wantFP)
	}

	// The pinned corpus must stay oracle-exact through the engine.
	ctx := parseAll(t, g.FileSet())
	got := toExpects(rules.Run(ctx, rules.DefaultRules()))
	if d := diffMultiset(got, g.Manifest().All()); d != "" {
		t.Fatalf("skewed corpus diverges from its manifest: %s", d)
	}
}

// corpusHash is an FNV-1a hash over every path, source, and sorted
// manifest entry of a generated corpus, in generation order.
func corpusHash(g *Generator) uint64 {
	h := fnv.New64a()
	for _, p := range g.Paths() {
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write([]byte(g.Source(p)))
		h.Write([]byte{0})
	}
	entries := make([]string, 0, g.Manifest().Total())
	for _, e := range g.Manifest().All() {
		entries = append(entries, e.String())
	}
	sort.Strings(entries)
	for _, e := range entries {
		h.Write([]byte(e))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestBenchmarkCorpusPinned pins the 10k-file benchmark corpus (20
// modules × 499 C++ + 1 CUDA files, seed 26262) byte for byte: sources,
// paths, and manifest. Generator changes must leave existing Params
// producing this exact tree.
func TestBenchmarkCorpusPinned(t *testing.T) {
	g := New(Params{Modules: 20, FilesPerModule: 499, FuncsPerFile: 3,
		ViolationsPerFile: 2, CUDAFiles: 1}, 26262)
	if g.Len() != 10000 {
		t.Fatalf("benchmark corpus has %d files, want 10000", g.Len())
	}
	const want = uint64(0xbd9d12e2378c0dff)
	if got := corpusHash(g); got != want {
		t.Fatalf("benchmark corpus hash = %#x, want %#x", got, want)
	}
}

// TestCrossFileMutationsKeepOracle drives a corpus through the
// cross-file mutation kinds and re-checks the oracle after every step:
// the manifest must stay exact for every file reading another file's
// facts. The run must exercise every kind and produce every cross-file
// finding class, so the check is not vacuous.
func TestCrossFileMutationsKeepOracle(t *testing.T) {
	g := New(Params{Modules: 3, FilesPerModule: 2, FuncsPerFile: 2,
		ViolationsPerFile: 1, CUDAFiles: 0, CrossFile: true}, 11)
	kinds := make(map[MutationKind]int)
	seen := make(map[string]bool)
	for step := 0; step < 120; step++ {
		mut := g.Mutate()
		kinds[mut.Kind]++
		ctx := parseAll(t, g.FileSet())
		got := toExpects(rules.RunSequential(ctx, rules.DefaultRules()))
		if d := diffMultiset(got, g.Manifest().All()); d != "" {
			t.Fatalf("step %d (%s %s): oracle mismatch:\n%s", step, mut.Kind, mut.Path, d)
		}
		for p, es := range g.Manifest().PerFile {
			if strings.Contains(g.Source(p), "cross-file reader") {
				for _, e := range es {
					seen[e.Rule] = true
				}
			}
		}
	}
	for _, k := range crossKinds {
		if kinds[k] == 0 {
			t.Errorf("mutation kind %s never drawn (%v)", k, kinds)
		}
	}
	for _, rule := range []string{"defensive", "shadow", "recursion"} {
		if !seen[rule] {
			t.Errorf("no reader file ever expected a %s finding", rule)
		}
	}
}

// TestPlainMutationsPinned pins the plain mutation sequence: with
// CrossFile off, a fixed seed draws exactly the mutations (kind, path,
// source) and ends on exactly the corpus it always has, so existing
// adfuzz seeds replay unchanged.
func TestPlainMutationsPinned(t *testing.T) {
	g := New(DefaultParams(), 9)
	h := fnv.New64a()
	for i := 0; i < 40; i++ {
		mut := g.Mutate()
		fmt.Fprintf(h, "%s|%s|%s\n", mut.Kind, mut.Path, mut.Src)
	}
	if got, want := h.Sum64(), uint64(0x4cb114b3a53dae3a); got != want {
		t.Fatalf("mutation sequence hash = %#x, want %#x", got, want)
	}
	if got, want := corpusHash(g), uint64(0x933c1ff795fed3dd); got != want {
		t.Fatalf("mutated corpus hash = %#x, want %#x", got, want)
	}
}
