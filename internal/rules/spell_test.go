package rules

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/srcfile"
)

// spellsAny reports whether src contains one of keys as a whole
// identifier: an occurrence not preceded or followed by an identifier
// character (the lexer's own identifier alphabet, so every identifier
// token qualifies), found with one strings.Index pass per key. It is the
// brute-force scan the index's identifier postings replace, kept as
// their oracle.
func spellsAny(src string, keys []string) bool {
	for _, key := range keys {
		if spellsIdent(src, key) {
			return true
		}
	}
	return false
}

// spellsIdent reports whether src contains the non-empty key as a whole
// identifier.
func spellsIdent(src, key string) bool {
	for i := 0; ; {
		j := strings.Index(src[i:], key)
		if j < 0 {
			return false
		}
		j += i
		end := j + len(key)
		if (j == 0 || !artifact.IsIdentByte(src[j-1])) && (end == len(src) || !artifact.IsIdentByte(src[end])) {
			return true
		}
		i = j + 1
	}
}

// TestSpellsAny pins the identifier-boundary scan behind name-level
// invalidation, and the postings' answer for the same source.
func TestSpellsAny(t *testing.T) {
	src := "int helper2(int x);\nvoid f(void) { ns::helper(1); obj.run(); } // see g_probe\n"
	cases := []struct {
		key  string
		want bool
	}{
		{"helper", true},  // after "::"
		{"helper2", true}, // at a line start boundary
		{"help", false},   // a prefix of identifiers only
		{"elper", false},  // a suffix of identifiers only
		{"run", true},     // a member call
		{"g_probe", true}, // in a comment: conservatively counted
		{"probe", false},  // inside g_probe
		{"x", true},
		{"int", true},
		{"missing", false},
	}
	ix := stubIndex(t, map[string]string{"a/a.c": src})
	for _, tc := range cases {
		if got := spellsAny(src, []string{tc.key}); got != tc.want {
			t.Errorf("scan of %q = %v, want %v", tc.key, got, tc.want)
		}
		if got := len(ix.Spellers(tc.key)) == 1; got != tc.want {
			t.Errorf("postings of %q = %v, want %v", tc.key, got, tc.want)
		}
	}
	for name, want := range map[string]string{
		"helper": "helper", "~Widget": "Widget", "vec<int,3>": "vec",
		"operator+=": "operator", "+": "",
	} {
		if got := identKey(name); got != want {
			t.Errorf("identKey(%q) = %q, want %q", name, got, want)
		}
	}
}

// stubIndex builds an index over stub units holding only the given
// sources: the postings read nothing else.
func stubIndex(t testing.TB, srcs map[string]string) *artifact.Index {
	t.Helper()
	units := make(map[string]*ccast.TranslationUnit, len(srcs))
	recs := make(map[string][]*artifact.Func, len(srcs))
	globals := make(map[string][]string, len(srcs))
	for p, src := range srcs {
		units[p] = &ccast.TranslationUnit{File: &srcfile.File{Path: p, Src: src}}
		recs[p], globals[p] = nil, nil
	}
	ix, err := artifact.BuildFromRecords(units, recs, globals)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// spellFrags are the pieces FuzzSpellers builds sources from: words and
// their prefixes and suffixes, digit-leading runs, non-ASCII bytes, and
// the punctuation that opens and closes comments and string literals.
var spellFrags = []string{
	"helper", "help", "elper", "helper2", "g_probe", "probe", "x", "x1",
	"1x", "42", "_", "int", "\xc3\xa9", "\xff", " ", "\n", "(", ");",
	"::", ".", "// ", "/* ", " */", "\"", "'",
}

// spellKeysFixed are the keys FuzzSpellers asks about after every step,
// besides substrings of the current sources.
var spellKeysFixed = []string{
	"", "helper", "help", "elper", "helper2", "g_probe", "probe", "x", "x1",
	"1x", "42", "_", "int", "\xc3\xa9", "x\xc3\xa9", "a b", "missing",
}

// FuzzSpellers checks the index's identifier postings against the
// brute-force scan (spellsIdent) over the current sources. Each input is
// a program of adds, replaces, removes and module moves, one Apply
// each, and queries, which build the postings on first use, so Applies
// run both before and after the postings exist. Every query answers a
// fixed key set and substrings of the current sources: a key that is
// not one identifier run starting with a non-digit selects every file.
func FuzzSpellers(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 4, 0, 1, 1, 1, 13, 14, 15, 16, 4, 0, 2, 0, 4})
	f.Add([]byte{4, 0, 3, 0, 1, 2, 3, 0, 4, 7, 7, 7, 4, 1, 3, 20, 21, 22, 23, 24, 2, 3, 4, 3, 0, 4, 9, 9})
	f.Add([]byte("\x00\x05helper help elper\x04\x01\x05\x13\x14\x15\x04\x02\x05\x04\x03\x01\x04"))
	paths := []string{"a/a.c", "a/b.c", "b/c.cc", "c/d.cu", "c/e.c", "d/f.c"}
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		source := func() string {
			var sb strings.Builder
			for n := next() % 12; n > 0; n-- {
				if c := next(); c < 2*len(spellFrags) {
					sb.WriteString(spellFrags[c%len(spellFrags)])
				} else {
					sb.WriteByte(byte(c))
				}
			}
			return sb.String()
		}
		srcs := map[string]string{paths[0]: "int helper(int x); // g_probe\n", paths[2]: "\"help\" x1 1x\n"}
		ix := stubIndex(t, srcs)
		queried := false
		for step := 0; len(prog) > 0; step++ {
			op, p := next()%5, paths[next()%len(paths)]
			_, present := srcs[p]
			switch {
			case op == 4:
				queried = true
				checkSpellers(t, step, ix, srcs, next(), next())
				continue
			case op == 2 && present:
				delete(srcs, p)
				ix.Apply(nil, []string{p})
				continue
			case op == 2:
				continue
			}
			file := &srcfile.File{Path: p, Src: source()}
			if op == 3 && present {
				// A module move: the same source under an explicit module.
				file.Src, file.Module = srcs[p], "moved"
			}
			srcs[p] = file.Src
			ix.Apply([]*ccast.TranslationUnit{{File: file}}, nil)
		}
		if queried {
			checkSpellers(t, -1, ix, srcs, 0, 0)
		}
	})
}

// checkSpellers compares the postings' answer with the scan for the
// fixed keys and for the substring [lo, lo+n) of every current source.
func checkSpellers(t *testing.T, step int, ix *artifact.Index, srcs map[string]string, lo, n int) {
	t.Helper()
	keys := slices.Clone(spellKeysFixed)
	for _, src := range srcs {
		if lo < len(src) {
			keys = append(keys, src[lo:min(len(src), lo+n%8)])
		}
	}
	all := make([]string, 0, len(srcs))
	for p := range srcs {
		all = append(all, p)
	}
	slices.Sort(all)
	for _, key := range keys {
		var want []string
		for _, p := range all {
			if !isWordKey(key) || spellsIdent(srcs[p], key) {
				want = append(want, p)
			}
		}
		if got := ix.Spellers(key); !slices.Equal(got, want) {
			t.Fatalf("step %d: Spellers(%q) = %q, want %q", step, key, got, want)
		}
	}
}

// isWordKey reports whether key is one identifier run that does not
// start with a digit: the keys the postings answer exactly.
func isWordKey(key string) bool {
	if key == "" || key[0] >= '0' && key[0] <= '9' {
		return false
	}
	for i := 0; i < len(key); i++ {
		if !artifact.IsIdentByte(key[i]) {
			return false
		}
	}
	return true
}
