package rules

import "testing"

// TestSpellsAny pins the identifier-boundary scan behind name-level
// invalidation.
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
	for _, tc := range cases {
		if got := spellsAny(src, []string{tc.key}); got != tc.want {
			t.Errorf("scan of %q = %v, want %v", tc.key, got, tc.want)
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
