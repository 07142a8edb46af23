package rules

import (
	"strings"
	"testing"

	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/iso26262"
	"repro/internal/srcfile"
)

func makeCtx(t *testing.T, files map[string]string) *Context {
	t.Helper()
	fs := srcfile.NewFileSet()
	for p, src := range files {
		fs.AddSource(p, src)
	}
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	for _, e := range errs {
		t.Fatalf("parse error: %v", e)
	}
	return NewContext(units)
}

func countRule(fs []Finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.RuleID == rule {
			n++
		}
	}
	return n
}

func TestCastRuleCounts(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.cc": `
void f() {
    int x = (int)3.5;
    float y = static_cast<float>(x);
    long z = (long)y;
}`})
	fs := (&CastRule{}).Check(ctx)
	if len(fs) != 3 {
		t.Fatalf("casts = %d, want 3: %v", len(fs), fs)
	}
	for _, f := range fs {
		if f.Refs[0] != (iso26262.Ref{Table: iso26262.TableCoding, Item: 3}) {
			t.Errorf("wrong ref: %v", f.Refs)
		}
	}
}

func TestImplicitConversionRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
void f(float threshold) {
    int count = 3.5;
    float ratio = 2;
    int ok = (int)threshold;
    count = threshold;
}`})
	fs := (&ImplicitConversionRule{}).Check(ctx)
	// int <- 3.5, float <- 2, count = threshold; explicit cast is exempt.
	if len(fs) != 3 {
		t.Fatalf("implicit conversions = %d, want 3: %v", len(fs), fs)
	}
}

func TestDynamicMemoryRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"perception/a.cu": `
void alloc_buffers(int n) {
    float* h = (float*)malloc(n * sizeof(float));
    float* d;
    cudaMalloc(&d, n * sizeof(float));
    float* v = new float[n];
    delete[] v;
    free(h);
    cudaFree(d);
}`})
	fs := (&DynamicMemoryRule{}).Check(ctx)
	if len(fs) != 6 {
		t.Fatalf("dynamic memory findings = %d, want 6: %v", len(fs), fs)
	}
}

func TestMultiExitRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int single(int a) { a++; return a; }
int multi(int a) {
    if (a < 0) return -1;
    if (a == 0) return 0;
    return 1;
}
void none(int a) { a++; }
`})
	fs := (&MultiExitRule{}).Check(ctx)
	if len(fs) != 1 {
		t.Fatalf("multi-exit = %d, want 1: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Msg, "3 exit points") {
		t.Errorf("msg = %q", fs[0].Msg)
	}
}

func TestGlobalVarRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"perception/a.cc": `
int g_frame_count = 0;
static float g_scale;
const int kMaxObjects = 128;
void f() {}
`})
	fs := (&GlobalVarRule{}).Check(ctx)
	if len(fs) != 2 {
		t.Fatalf("globals = %d, want 2 (const exempt): %v", len(fs), fs)
	}
}

func TestGotoRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int f(int a) {
    if (a < 0) goto fail;
    return a;
fail:
    return -1;
}`})
	fs := (&GotoRule{}).Check(ctx)
	if len(fs) != 1 {
		t.Fatalf("gotos = %d, want 1", len(fs))
	}
}

func TestRecursionRuleDirect(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int fact(int n) {
    if (n <= 1) return 1;
    return n * fact(n - 1);
}
int iterative(int n) { return n; }
`})
	fs := (&RecursionRule{}).Check(ctx)
	if len(fs) != 1 {
		t.Fatalf("recursion = %d, want 1: %v", len(fs), fs)
	}
	if fs[0].Function != "fact" {
		t.Errorf("function = %q", fs[0].Function)
	}
}

func TestRecursionRuleMutual(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int is_even(int n);
int is_odd(int n) {
    if (n == 0) return 0;
    return is_even(n - 1);
}
int is_even(int n) {
    if (n == 0) return 1;
    return is_odd(n - 1);
}
`})
	fs := (&RecursionRule{}).Check(ctx)
	if len(fs) != 2 {
		t.Fatalf("mutual recursion = %d, want 2: %v", len(fs), fs)
	}
}

func TestUninitializedRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int f() {
    int x;
    int y = 0;
    y = x + 1;
    int z;
    z = 5;
    return z + y;
}`})
	fs := (&UninitializedRule{}).Check(ctx)
	if len(fs) != 1 {
		t.Fatalf("uninit = %d, want 1 (x only): %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Msg, `"x"`) {
		t.Errorf("msg = %q", fs[0].Msg)
	}
}

func TestUninitializedRuleAddressOfEscape(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int f() {
    int x;
    init_value(&x);
    return x;
}`})
	fs := (&UninitializedRule{}).Check(ctx)
	if len(fs) != 0 {
		t.Fatalf("address-taken var flagged: %v", fs)
	}
}

func TestShadowRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int count = 0;
void f() {
    int count = 1;
    if (count > 0) {
        int inner = 2;
        int count = inner;
        count++;
    }
}`})
	fs := (&ShadowRule{}).Check(ctx)
	// local count shadows global; inner count shadows outer local.
	if len(fs) != 2 {
		t.Fatalf("shadows = %d, want 2: %v", len(fs), fs)
	}
}

func TestDefensiveRuleUncheckedPointer(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int checked(float* p) {
    if (p == 0) return -1;
    return (int)p[0];
}
int unchecked(float* p) {
    return (int)p[0];
}
int untouched(float* p) {
    return 7;
}`})
	fs := (&DefensiveRule{}).Check(ctx)
	unchecked := Filter(fs, func(f *Finding) bool {
		return strings.Contains(f.Msg, "without null check")
	})
	if len(unchecked) != 1 {
		t.Fatalf("unchecked pointer findings = %d, want 1: %v", len(unchecked), fs)
	}
	if unchecked[0].Function != "unchecked" {
		t.Errorf("function = %q", unchecked[0].Function)
	}
}

func TestDefensiveRuleIgnoredReturn(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int compute(int a) { return a * 2; }
void log_msg(int a) { }
void caller() {
    compute(3);
    log_msg(4);
    int v = compute(5);
    v++;
}`})
	fs := (&DefensiveRule{}).Check(ctx)
	ignored := Filter(fs, func(f *Finding) bool {
		return strings.Contains(f.Msg, "ignored")
	})
	if len(ignored) != 1 {
		t.Fatalf("ignored returns = %d, want 1: %v", len(ignored), fs)
	}
}

func TestComplexityRule(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("int complex_fn(int a) {\n")
	for i := 0; i < 15; i++ {
		sb.WriteString("if (a > 0) { a++; }\n")
	}
	sb.WriteString("return a;\n}\nint simple_fn(int a) { return a; }\n")
	ctx := makeCtx(t, map[string]string{"m/a.c": sb.String()})
	fs := (&ComplexityRule{Threshold: 10}).Check(ctx)
	if len(fs) != 1 {
		t.Fatalf("complexity findings = %d, want 1: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Msg, "complexity 16") {
		t.Errorf("msg = %q", fs[0].Msg)
	}
}

func TestLanguageSubsetRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"perception/k.cu": `
union Overlay { int i; float f; };
__global__ void kern(float* x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) x[i] = 0;
}
void launch(float* x, int n) {
    kern<<<1, 256>>>(x, n);
    atoi("42");
}`})
	fs := (&LanguageSubsetRule{}).Check(ctx)
	if countRule(fs, "lang-subset") < 4 {
		t.Fatalf("subset findings = %d, want >= 4 (union, kernel launch, atoi, kernel info): %v", len(fs), fs)
	}
	var launchFound bool
	for _, f := range fs {
		if strings.Contains(f.Msg, "kernel launch") {
			launchFound = true
		}
	}
	if !launchFound {
		t.Error("kernel launch finding missing")
	}
}

func TestPointerRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
float* g_buf;
void f(float* in, int n) {
    float* local = in;
    int x = n;
    x++;
    local++;
}`})
	fs := (&PointerRule{}).Check(ctx)
	if len(fs) != 3 {
		t.Fatalf("pointer findings = %d, want 3 (param, local, global): %v", len(fs), fs)
	}
}

func TestNamingRule(t *testing.T) {
	ctx := makeCtx(t, map[string]string{
		"m/good.cc": `
class ObjectTracker { public: int Track() { return 0; } };
`,
		"m/bad.cc": `
class object_tracker { public: int do_track() { return 0; } };
`,
	})
	fs := (&NamingRule{}).Check(ctx)
	bad := Filter(fs, func(f *Finding) bool { return f.File == "m/bad.cc" })
	good := Filter(fs, func(f *Finding) bool { return f.File == "m/good.cc" })
	if len(good) != 0 {
		t.Errorf("good file flagged: %v", good)
	}
	if len(bad) != 1 {
		// class name violates CamelCase; method lower_snake is allowed in
		// the mixed convention.
		t.Errorf("bad file findings = %d, want 1: %v", len(bad), bad)
	}
}

func TestStyleRule(t *testing.T) {
	long := strings.Repeat("x", 100)
	ctx := makeCtx(t, map[string]string{"m/a.cc": "int a; // " + long + "\n\tint b;\n"})
	fs := (&StyleRule{}).Check(ctx)
	if countRule(fs, "style") != 2 {
		t.Fatalf("style findings = %d, want 2 (long line + tab): %v", len(fs), fs)
	}
}

func TestRunSortsAndAggregates(t *testing.T) {
	ctx := makeCtx(t, map[string]string{
		"perception/a.c": `
int g_count;
int f(int a) {
    if (a < 0) return -1;
    return a;
}`,
		"control/b.c": `
void g() { goto out; out: return; }`,
	})
	fs := Run(ctx, DefaultRules())
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	for i := 1; i < len(fs); i++ {
		if fs[i].File < fs[i-1].File {
			t.Fatal("findings not sorted by file")
		}
	}
	st := Aggregate(fs)
	if st.Total != len(fs) {
		t.Errorf("total = %d, want %d", st.Total, len(fs))
	}
	if st.Count("goto", "control") != 1 {
		t.Errorf("goto in control = %d", st.Count("goto", "control"))
	}
	if st.Count("multi-exit", "perception") != 1 {
		t.Errorf("multi-exit in perception = %d", st.Count("multi-exit", "perception"))
	}
	ref := iso26262.Ref{Table: iso26262.TableUnit, Item: 9}
	if len(ForRef(fs, ref)) != 1 {
		t.Errorf("ForRef(T8.9) = %d", len(ForRef(fs, ref)))
	}
}

func TestContextIndexes(t *testing.T) {
	ctx := makeCtx(t, map[string]string{"m/a.c": `
int helper() { return 1; }
int caller() { return helper(); }
`})
	if len(ctx.Funcs()) != 2 {
		t.Fatalf("funcs = %d", len(ctx.Funcs()))
	}
	fi := ctx.ByName["caller"]
	if fi == nil || len(fi.Callees) != 1 || fi.Callees[0] != "helper" {
		t.Errorf("caller info = %+v", fi)
	}
}

func TestNoFalseCastOnDeclInit(t *testing.T) {
	// A plain initialization must not be counted as a cast.
	ctx := makeCtx(t, map[string]string{"m/a.c": `
void f() {
    int x = 5;
    float y = 1.5f;
}`})
	fs := (&CastRule{}).Check(ctx)
	if len(fs) != 0 {
		t.Errorf("false casts: %v", fs)
	}
}

var _ = ccast.CountReturns // keep import if unused in some builds
