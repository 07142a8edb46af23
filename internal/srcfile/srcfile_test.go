package srcfile

import (
	"testing"
	"testing/quick"
)

func TestLanguageForPath(t *testing.T) {
	cases := map[string]Language{
		"a.c": LangC, "dir/b.cu": LangCUDA, "c.cuh": LangCUDA,
		"d.h": LangHeader, "e.hpp": LangHeader, "f.cc": LangCPP,
		"g.cpp": LangCPP, "noext": LangCPP,
	}
	for p, want := range cases {
		if got := LanguageForPath(p); got != want {
			t.Errorf("LanguageForPath(%q) = %v, want %v", p, got, want)
		}
	}
}

func TestLanguageString(t *testing.T) {
	for _, l := range []Language{LangC, LangCPP, LangCUDA, LangHeader} {
		if l.String() == "" {
			t.Errorf("empty name for %d", int(l))
		}
	}
}

func TestModuleName(t *testing.T) {
	f := &File{Path: "perception/camera/detector.cc"}
	if f.ModuleName() != "perception" {
		t.Errorf("module = %q", f.ModuleName())
	}
	g := &File{Path: "flat.c"}
	if g.ModuleName() != "flat.c" {
		t.Errorf("flat module = %q", g.ModuleName())
	}
	h := &File{Path: "a/b.c", Module: "override"}
	if h.ModuleName() != "override" {
		t.Errorf("override module = %q", h.ModuleName())
	}
}

func TestLineCountAndLine(t *testing.T) {
	f := &File{Src: "one\ntwo\nthree"}
	if f.LineCount() != 3 {
		t.Errorf("lines = %d", f.LineCount())
	}
	if f.Line(2) != "two" {
		t.Errorf("line 2 = %q", f.Line(2))
	}
	if f.Line(3) != "three" {
		t.Errorf("line 3 = %q", f.Line(3))
	}
	if f.Line(0) != "" || f.Line(99) != "" {
		t.Error("out-of-range lines must be empty")
	}
	g := &File{Src: "trailing\n"}
	if g.LineCount() != 1 {
		t.Errorf("trailing newline lines = %d", g.LineCount())
	}
	if (&File{}).LineCount() != 0 {
		t.Error("empty file must have 0 lines")
	}
}

// Regression: CRLF files must report the same line count and line text
// as their LF twins — the '\r' is a terminator byte, not line content
// (findings and NLOC metrics read these everywhere).
func TestLineCRLF(t *testing.T) {
	crlf := &File{Src: "one\r\ntwo\r\nthree\r\n"}
	if crlf.LineCount() != 3 {
		t.Errorf("CRLF lines = %d, want 3", crlf.LineCount())
	}
	for i, want := range []string{"one", "two", "three"} {
		if got := crlf.Line(i + 1); got != want {
			t.Errorf("CRLF line %d = %q, want %q", i+1, got, want)
		}
	}
	// No trailing newline after a CRLF body.
	partial := &File{Src: "one\r\ntwo"}
	if partial.LineCount() != 2 {
		t.Errorf("partial CRLF lines = %d, want 2", partial.LineCount())
	}
	if partial.Line(1) != "one" || partial.Line(2) != "two" {
		t.Errorf("partial CRLF lines = %q, %q", partial.Line(1), partial.Line(2))
	}
	// A file that is just a CR-terminated line.
	cr := &File{Src: "only\r\n"}
	if cr.LineCount() != 1 || cr.Line(1) != "only" {
		t.Errorf("single CRLF line = %d, %q", cr.LineCount(), cr.Line(1))
	}
}

// Regression: a line index one past the last line is out of range even
// when the file ends with a newline (previously Line(count+1) returned
// the same "" as a hypothetical empty line, but via the in-range path).
func TestLinePastEnd(t *testing.T) {
	f := &File{Src: "a\nb\n"}
	if f.LineCount() != 2 {
		t.Fatalf("lines = %d", f.LineCount())
	}
	if f.Line(3) != "" || f.Line(2) != "b" {
		t.Errorf("line 3 = %q, line 2 = %q", f.Line(3), f.Line(2))
	}
	// Interior empty lines are real lines.
	g := &File{Src: "a\n\nb"}
	if g.LineCount() != 3 || g.Line(2) != "" || g.Line(3) != "b" {
		t.Errorf("interior empty line: count=%d line2=%q line3=%q",
			g.LineCount(), g.Line(2), g.Line(3))
	}
}

// TotalLines must agree with per-file LineCount across mixed endings.
func TestTotalLinesMixedEndings(t *testing.T) {
	fs := NewFileSet()
	fs.AddSource("a.c", "x\ny\n")     // 2
	fs.AddSource("b.c", "x\r\ny")     // 2, no trailing newline
	fs.AddSource("c.c", "")           // 0
	fs.AddSource("d.c", "no newline") // 1
	if fs.TotalLines() != 5 {
		t.Errorf("total lines = %d, want 5", fs.TotalLines())
	}
}

func TestFileSetRemove(t *testing.T) {
	fs := NewFileSet()
	fs.AddSource("a.c", "int a;")
	fs.AddSource("b.c", "int b;")
	fs.AddSource("c.c", "int c;")
	if !fs.Remove("b.c") {
		t.Fatal("Remove(b.c) = false")
	}
	if fs.Remove("b.c") {
		t.Error("second Remove must report false")
	}
	if fs.Len() != 2 || fs.Lookup("b.c") != nil {
		t.Errorf("len = %d after remove", fs.Len())
	}
	paths := []string{}
	for _, f := range fs.Files() {
		paths = append(paths, f.Path)
	}
	if paths[0] != "a.c" || paths[1] != "c.c" {
		t.Errorf("order after remove = %v", paths)
	}
}

func TestFileSetAddLookup(t *testing.T) {
	fs := NewFileSet()
	fs.AddSource("m/a.c", "int x;")
	fs.AddSource("m/b.cu", "int y;")
	fs.AddSource("n/c.cc", "int z;")
	if fs.Len() != 3 {
		t.Fatalf("len = %d", fs.Len())
	}
	if fs.Lookup("m/b.cu").Lang != LangCUDA {
		t.Error("language not inferred on AddSource")
	}
	if fs.Lookup("missing") != nil {
		t.Error("missing lookup should be nil")
	}
	mods := fs.Modules()
	if len(mods) != 2 || mods[0] != "m" || mods[1] != "n" {
		t.Errorf("modules = %v", mods)
	}
	if len(fs.ModuleFiles("m")) != 2 {
		t.Errorf("module files = %d", len(fs.ModuleFiles("m")))
	}
	if fs.TotalLines() != 3 {
		t.Errorf("total lines = %d", fs.TotalLines())
	}
}

func TestFileSetReplaceOnDuplicatePath(t *testing.T) {
	fs := NewFileSet()
	fs.AddSource("a.c", "int x;")
	fs.AddSource("a.c", "int y;\nint z;")
	if fs.Len() != 1 {
		t.Fatalf("len = %d, want 1 (replace)", fs.Len())
	}
	if fs.Lookup("a.c").LineCount() != 2 {
		t.Error("replacement content lost")
	}
}

func TestPosOrdering(t *testing.T) {
	a := Pos{Line: 1, Col: 1, Offset: 0}
	b := Pos{Line: 2, Col: 1, Offset: 10}
	if !a.Before(b) || b.Before(a) {
		t.Error("Before ordering broken")
	}
	if a.String() != "1:1" {
		t.Errorf("pos string = %q", a.String())
	}
	sp := Span{Start: a, End: b}
	if sp.String() != "1:1-2:1" {
		t.Errorf("span string = %q", sp.String())
	}
}

// Property: Line(i) joined with newlines reconstructs files without a
// trailing newline.
func TestLineRoundTripProperty(t *testing.T) {
	f := func(parts []uint8) bool {
		src := ""
		want := make([]string, 0, len(parts))
		for i, p := range parts {
			// Lines are non-empty: an empty final line is indistinguishable
			// from a trailing newline under the LineCount convention.
			line := "x"
			for j := 0; j < int(p%4); j++ {
				line += "x"
			}
			want = append(want, line)
			src += line
			if i < len(parts)-1 {
				src += "\n"
			}
		}
		if len(parts) == 0 {
			return true
		}
		file := &File{Src: src}
		if file.LineCount() != len(want) {
			return false
		}
		for i, w := range want {
			if file.Line(i+1) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestModuleBucketsTrackReplaceAndRemove pins the incremental module
// partition: replacing a file with an explicit module override moves it
// between shards, and removals shrink (and eventually drop) the shard.
func TestModuleBucketsTrackReplaceAndRemove(t *testing.T) {
	fs := NewFileSet()
	fs.AddSource("m/a.c", "int a;\n")
	fs.AddSource("m/b.c", "int b;\n")
	fs.AddSource("n/c.c", "int c;\n")

	if got := len(fs.ModuleFiles("m")); got != 2 {
		t.Fatalf("m has %d files, want 2", got)
	}
	// Replace with an explicit override: m/b.c now belongs to module n.
	fs.Add(&File{Path: "m/b.c", Module: "n", Src: "int b2;\n"})
	if got := len(fs.ModuleFiles("m")); got != 1 {
		t.Errorf("m has %d files after override move, want 1", got)
	}
	if got := len(fs.ModuleFiles("n")); got != 2 {
		t.Errorf("n has %d files after override move, want 2", got)
	}
	if mods := fs.Modules(); len(mods) != 2 || mods[0] != "m" || mods[1] != "n" {
		t.Errorf("modules = %v", mods)
	}

	fs.Remove("m/a.c")
	if mods := fs.Modules(); len(mods) != 1 || mods[0] != "n" {
		t.Errorf("modules after emptying m = %v", mods)
	}
	if fs.ModuleFiles("m") != nil {
		t.Error("empty module shard not dropped")
	}
}
