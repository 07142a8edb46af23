package metrics

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/srcfile"
)

func parseUnits(t *testing.T, files map[string]string) map[string]*ccast.TranslationUnit {
	t.Helper()
	fs := srcfile.NewFileSet()
	for p, src := range files {
		fs.AddSource(p, src)
	}
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return units
}

func TestCountNLOC(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"", 0},
		{"int x;\n", 1},
		{"int x;\nint y;\n", 2},
		{"\n\n\n", 0},
		{"// comment only\n", 0},
		{"/* block\n   comment */\n", 0},
		{"int x; // trailing\n", 1},
		{"/* a */ int x;\n", 1},
		{"int x;\n\n// c\nint y;\n", 2},
		{"char* s = \"// not a comment\";\n", 1},
		{"int x; /* spans\nlines */ int y;\n", 2},
	}
	for _, c := range cases {
		if got := CountNLOC(c.src); got != c.want {
			t.Errorf("CountNLOC(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestCountCommentLines(t *testing.T) {
	src := "// a\nint x; // b\n/* c\nd */\nint y;\n"
	if got := CountCommentLines(src); got != 4 {
		t.Errorf("comment lines = %d, want 4", got)
	}
}

func TestBandOf(t *testing.T) {
	cases := map[int]Band{
		1: BandLow, 10: BandLow, 11: BandModerate, 20: BandModerate,
		21: BandRisky, 50: BandRisky, 51: BandUnstable, 200: BandUnstable,
	}
	for ccn, want := range cases {
		if got := BandOf(ccn); got != want {
			t.Errorf("BandOf(%d) = %v, want %v", ccn, got, want)
		}
	}
}

func TestCyclomaticCountsShortCircuit(t *testing.T) {
	units := parseUnits(t, map[string]string{"m/a.c": `
int f(int a, int b, int c) {
    if (a > 0 && b > 0 || c > 0) { return 1; }
    return 0;
}`})
	fn := units["m/a.c"].Funcs()[0]
	// 1 + if + && + || = 4 (Lizard counting).
	if got := Cyclomatic(fn); got != 4 {
		t.Errorf("CCN = %d, want 4", got)
	}
}

func TestCyclomaticSwitch(t *testing.T) {
	units := parseUnits(t, map[string]string{"m/a.c": `
int f(int a) {
    switch (a) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 2;
    default: return -1;
    }
}`})
	fn := units["m/a.c"].Funcs()[0]
	// 1 + 3 case labels (default does not count in Lizard).
	if got := Cyclomatic(fn); got != 4 {
		t.Errorf("CCN = %d, want 4", got)
	}
}

func TestCyclomaticTernary(t *testing.T) {
	units := parseUnits(t, map[string]string{"m/a.c": `
int f(int a) { return a > 0 ? a : -a; }`})
	if got := Cyclomatic(units["m/a.c"].Funcs()[0]); got != 2 {
		t.Errorf("CCN = %d, want 2", got)
	}
}

func TestAnalyzeAggregates(t *testing.T) {
	units := parseUnits(t, map[string]string{
		"perception/a.c": `
int simple() { return 1; }
int moderate(int a) {
    if (a > 0) { a++; } if (a > 1) { a++; } if (a > 2) { a++; }
    if (a > 3) { a++; } if (a > 4) { a++; } if (a > 5) { a++; }
    if (a > 6) { a++; } if (a > 7) { a++; } if (a > 8) { a++; }
    if (a > 9) { a++; } if (a > 10) { a++; } if (a > 11) { a++; }
    return a;
}`,
		"planning/b.c": `
int g() { return 2; }`,
	})
	fw := AnalyzeIndexed(artifact.Build(units))
	if len(fw.Modules) != 2 {
		t.Fatalf("modules = %d", len(fw.Modules))
	}
	if fw.TotalFunc != 3 {
		t.Errorf("functions = %d, want 3", fw.TotalFunc)
	}
	per := fw.Module("perception")
	if per == nil || per.Functions != 2 {
		t.Fatalf("perception module missing or wrong: %+v", per)
	}
	// moderate() has CCN 13: counted over threshold 10, and moderate+.
	if per.OverCCN[10] != 1 {
		t.Errorf("over-10 = %d, want 1", per.OverCCN[10])
	}
	if per.OverCCN[20] != 0 {
		t.Errorf("over-20 = %d, want 0", per.OverCCN[20])
	}
	if fw.ModerateOrWorse != 1 {
		t.Errorf("moderate-or-worse = %d, want 1", fw.ModerateOrWorse)
	}
	if per.MaxCCN != 13 {
		t.Errorf("max ccn = %d, want 13", per.MaxCCN)
	}
}

func TestFunctionMetricsFields(t *testing.T) {
	units := parseUnits(t, map[string]string{"perception/a.c": `
int f(int a, int b) {
    if (a < 0) return -1;
    return a + b;
}`})
	fw := AnalyzeIndexed(artifact.Build(units))
	fns := fw.AllFunctions()
	if len(fns) != 1 {
		t.Fatalf("functions = %d", len(fns))
	}
	fn := fns[0]
	if fn.Params != 2 || fn.Returns != 2 || fn.Module != "perception" {
		t.Errorf("row = %+v", fn)
	}
	if fn.NLOC < 3 {
		t.Errorf("NLOC = %d, want >= 3", fn.NLOC)
	}
}

func TestAnalyzeArchCohesionAndCoupling(t *testing.T) {
	units := parseUnits(t, map[string]string{
		"perception/a.c": `
int detect() { return track(); }
int track() { return 1; }
`,
		"planning/b.c": `
int plan() { return detect(); }
`,
	})
	arch := AnalyzeArchIndexed(artifact.Build(units))
	if len(arch) != 2 {
		t.Fatalf("arch modules = %d", len(arch))
	}
	var per, plan *ArchMetrics
	for _, a := range arch {
		switch a.Module {
		case "perception":
			per = a
		case "planning":
			plan = a
		}
	}
	if per.InternalCalls != 1 || per.ExternalCalls != 0 {
		t.Errorf("perception calls = %d/%d", per.InternalCalls, per.ExternalCalls)
	}
	if per.Cohesion != 1.0 {
		t.Errorf("perception cohesion = %v", per.Cohesion)
	}
	if plan.ExternalCalls != 1 || plan.FanOut != 1 {
		t.Errorf("planning external = %d fanout = %d", plan.ExternalCalls, plan.FanOut)
	}
	if per.FanIn != 1 {
		t.Errorf("perception fanin = %d, want 1", per.FanIn)
	}
}

func TestAnalyzeArchInterfaceSize(t *testing.T) {
	units := parseUnits(t, map[string]string{"control/a.c": `
void small(int a) {}
void big(int a, int b, int c, int d, int e, int f, int g) {}
`})
	arch := AnalyzeArchIndexed(artifact.Build(units))
	if arch[0].MaxInterfaceParams != 7 {
		t.Errorf("max params = %d, want 7", arch[0].MaxInterfaceParams)
	}
}

func TestAnalyzeArchSchedulingPrimitives(t *testing.T) {
	units := parseUnits(t, map[string]string{"canbus/a.c": `
void setup() {
    pthread_create(0, 0, 0, 0);
    signal(2, 0);
}
`})
	arch := AnalyzeArchIndexed(artifact.Build(units))
	if arch[0].ThreadPrimitives != 1 {
		t.Errorf("thread primitives = %d", arch[0].ThreadPrimitives)
	}
	if arch[0].InterruptHandlers != 1 {
		t.Errorf("interrupt handlers = %d", arch[0].InterruptHandlers)
	}
}

func TestBuildHierarchy(t *testing.T) {
	units := parseUnits(t, map[string]string{
		"perception/a.c": "int f() { return 0; }",
		"perception/b.c": "int g() { return 0; }",
		"control/c.c":    "int h() { return 0; }",
	})
	h := BuildHierarchy(units)
	if len(h.Modules) != 2 {
		t.Fatalf("modules = %d", len(h.Modules))
	}
	if h.Modules[0].Name != "control" || h.Modules[1].Name != "perception" {
		t.Errorf("order = %v, %v", h.Modules[0].Name, h.Modules[1].Name)
	}
	if len(h.Modules[1].Files) != 2 {
		t.Errorf("perception files = %d", len(h.Modules[1].Files))
	}
}

// Property: NLOC is monotone under appending a code line and never exceeds
// the physical line count.
func TestNLOCBoundsProperty(t *testing.T) {
	f := func(lines []uint8) bool {
		var sb strings.Builder
		physical := 0
		for _, l := range lines {
			switch l % 4 {
			case 0:
				sb.WriteString("int x;\n")
			case 1:
				sb.WriteString("\n")
			case 2:
				sb.WriteString("// comment\n")
			case 3:
				sb.WriteString("x++;\n")
			}
			physical++
		}
		src := sb.String()
		n := CountNLOC(src)
		if n < 0 || n > physical {
			return false
		}
		return CountNLOC(src+"y = 1;\n") == n+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CCN of a chain of k sequential ifs is k+1.
func TestCyclomaticChainProperty(t *testing.T) {
	for k := 0; k <= 20; k++ {
		var sb strings.Builder
		sb.WriteString("int f(int a) {\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&sb, "if (a > %d) { a++; }\n", i)
		}
		sb.WriteString("return a;\n}\n")
		units := parseUnits(t, map[string]string{"m/a.c": sb.String()})
		if got := Cyclomatic(units["m/a.c"].Funcs()[0]); got != k+1 {
			t.Fatalf("k=%d: CCN = %d, want %d", k, got, k+1)
		}
	}
}

func TestMaxLineLength(t *testing.T) {
	if got := MaxLineLength("ab\nabcd\na\n"); got != 4 {
		t.Errorf("max line = %d, want 4", got)
	}
}
