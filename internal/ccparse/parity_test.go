package ccparse_test

// Differential parity tests for the cold-path optimizations: the []byte
// lexer fast path with corpus-level interning and the arena-allocated
// parser must be observationally identical to the pre-optimization
// reference path (Options.Reference). Every corpus the repo can generate
// is pushed through both and the outputs — token streams, fully rendered
// ASTs, and rule findings — are compared byte for byte. A divergence
// here means the fast path changed meaning, not just speed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/apollocorpus"
	"repro/internal/ccast"
	"repro/internal/cclex"
	"repro/internal/ccparse"
	"repro/internal/corpusgen"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// parityCorpora returns every generated corpus in the repo: the
// calibrated Apollo-like default, the two CUDA-heavy corpora, the paper's
// Figure 4 excerpt, and a mixed corpusgen scenario corpus (different
// generator, different idioms).
func parityCorpora() []struct {
	name string
	fs   *srcfile.FileSet
} {
	sb := srcfile.NewFileSet()
	sb.Add(apollocorpus.ScaleBiasSample())
	return []struct {
		name string
		fs   *srcfile.FileSet
	}{
		{"default", apollocorpus.GenerateDefault()},
		{"yolo", apollocorpus.YoloCorpus()},
		{"stencil", apollocorpus.StencilCorpus()},
		{"scale_bias", sb},
		{"corpusgen", corpusgen.New(corpusgen.Params{
			Modules: 3, FilesPerModule: 5, FuncsPerFile: 4,
			ViolationsPerFile: 2, CUDAFiles: 1,
		}, 7).FileSet()},
	}
}

// TestLexParity locks the lexer fast paths to the plain string lexer:
// the []byte entry point and corpus-level interning must both produce
// the identical token stream (kind, spelling, position, offset) and the
// identical error list on every corpus file.
func TestLexParity(t *testing.T) {
	lexAll := func(f *srcfile.File, useBytes bool, in *cclex.Interner) ([]cclex.Token, []string) {
		var lx *cclex.Lexer
		if useBytes {
			lx = cclex.NewBytes([]byte(f.Src))
		} else {
			lx = cclex.New(f.Src)
		}
		lx.CUDA = f.Lang == srcfile.LangCUDA
		lx.KeepComments = true
		lx.Intern = in
		toks := lx.All()
		var errs []string
		for _, e := range lx.Errors() {
			errs = append(errs, e.Error())
		}
		return toks, errs
	}
	for _, c := range parityCorpora() {
		in := cclex.NewInterner()
		for _, f := range c.fs.Files() {
			ref, refErrs := lexAll(f, false, nil)
			for _, alt := range []struct {
				name     string
				useBytes bool
				in       *cclex.Interner
			}{
				{"bytes", true, nil},
				{"interned", false, in},
				{"bytes+interned", true, in},
			} {
				got, gotErrs := lexAll(f, alt.useBytes, alt.in)
				if len(got) != len(ref) {
					t.Fatalf("%s/%s [%s]: %d tokens, reference %d", c.name, f.Path, alt.name, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s/%s [%s]: token %d = %+v, reference %+v", c.name, f.Path, alt.name, i, got[i], ref[i])
					}
				}
				if !reflect.DeepEqual(gotErrs, refErrs) {
					t.Fatalf("%s/%s [%s]: errors %v, reference %v", c.name, f.Path, alt.name, gotErrs, refErrs)
				}
			}
		}
	}
}

// TestParseParity renders every AST the arena fast path produces and
// byte-compares it against the reference heap path, file by file, along
// with the parse error lists. The render covers every node kind, every
// salient field, and every span, so any structural or positional drift
// fails loudly with the first diverging file. The fast path parses each
// corpus with one ParseAll worker, so every file comes from one shared
// arena and one shared identifier table.
func TestParseParity(t *testing.T) {
	for _, c := range parityCorpora() {
		fast, fastErrs := ccparse.ParseAll(c.fs, ccparse.Options{Workers: 1, Intern: cclex.NewInterner()})
		errsOf := make(map[string][]string)
		for _, e := range fastErrs {
			errsOf[e.File] = append(errsOf[e.File], e.Error())
		}
		for _, f := range c.fs.Files() {
			refTU, refErrs := ccparse.Parse(f, ccparse.Options{Reference: true})
			ref, got := dumpTU(refTU), dumpTU(fast[f.Path])
			if ref != got {
				t.Fatalf("%s/%s: AST diverges\n%s", c.name, f.Path, firstDiff(ref, got))
			}
			if r, g := errStrings(refErrs), errsOf[f.Path]; !slices.Equal(r, g) {
				t.Fatalf("%s/%s: errors %v, reference %v", c.name, f.Path, g, r)
			}
		}
	}
}

// TestFindingsParity runs the full default rule set over the whole
// corpus parsed each way and demands byte-identical findings JSON — the
// end-to-end guarantee the assessment pipeline actually depends on.
func TestFindingsParity(t *testing.T) {
	for _, c := range parityCorpora() {
		refUnits, _ := ccparse.ParseAll(c.fs, ccparse.Options{Reference: true})
		fastUnits, _ := ccparse.ParseAll(c.fs, ccparse.Options{})
		ref, err := json.Marshal(rules.Run(rules.NewContext(refUnits), rules.DefaultRules()))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := json.Marshal(rules.Run(rules.NewContext(fastUnits), rules.DefaultRules()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, fast) {
			t.Fatalf("%s: findings diverge between reference and fast parse", c.name)
		}
	}
}

func errStrings(errs []*ccparse.Error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

// firstDiff locates the first diverging line of two renders.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  reference: %s\n  fast:      %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: reference %d lines, fast %d lines", len(al), len(bl))
}

// dumpTU renders a translation unit deterministically: every node kind,
// every field the pipeline reads, every span. Two ASTs render equal iff
// they are structurally identical.
func dumpTU(tu *ccast.TranslationUnit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "unit %s decls=%d\n", tu.File.Path, len(tu.Decls))
	for _, c := range tu.Comments {
		fmt.Fprintf(&b, "comment %d:%d %q\n", c.Line, c.Col, c.Text)
	}
	for _, d := range tu.Decls {
		dumpNode(&b, d, 1)
	}
	return b.String()
}

func indent(b *strings.Builder, d int) {
	for i := 0; i < d; i++ {
		b.WriteString("  ")
	}
}

func typeStr(t *ccast.Type) string {
	if t == nil {
		return "<nil>"
	}
	return fmt.Sprintf("{%s q=%d ptr=%d ref=%v dims=%d}", t.Name, t.Quals, t.PtrDepth, t.IsRef, len(t.ArrayDims))
}

// dumpTypeDims renders a type's array-dimension expressions as children
// (typeStr only records the count).
func dumpTypeDims(b *strings.Builder, t *ccast.Type, d int) {
	if t == nil {
		return
	}
	for _, dim := range t.ArrayDims {
		dumpNode(b, dim, d)
	}
}

func dumpNode(b *strings.Builder, n ccast.Node, d int) {
	indent(b, d)
	if n == nil || reflect.ValueOf(n).IsNil() {
		b.WriteString("nil\n")
		return
	}
	sp := n.Span()
	fmt.Fprintf(b, "[%d:%d-%d:%d] ", sp.Start.Line, sp.Start.Col, sp.End.Line, sp.End.Col)
	switch x := n.(type) {
	// Expressions.
	case *ccast.Ident:
		fmt.Fprintf(b, "Ident %q\n", x.Name)
	case *ccast.IntLit:
		fmt.Fprintf(b, "IntLit %q %d\n", x.Text, x.Value)
	case *ccast.FloatLit:
		fmt.Fprintf(b, "FloatLit %q %v\n", x.Text, x.Value)
	case *ccast.StringLit:
		fmt.Fprintf(b, "StringLit %q\n", x.Text)
	case *ccast.CharLit:
		fmt.Fprintf(b, "CharLit %q %d\n", x.Text, x.Value)
	case *ccast.BoolLit:
		fmt.Fprintf(b, "BoolLit %v null=%v\n", x.Value, x.IsNull)
	case *ccast.Unary:
		fmt.Fprintf(b, "Unary %q\n", x.Op)
		dumpNode(b, x.X, d+1)
	case *ccast.Postfix:
		fmt.Fprintf(b, "Postfix %q\n", x.Op)
		dumpNode(b, x.X, d+1)
	case *ccast.Binary:
		fmt.Fprintf(b, "Binary %q\n", x.Op)
		dumpNode(b, x.L, d+1)
		dumpNode(b, x.R, d+1)
	case *ccast.Assign:
		fmt.Fprintf(b, "Assign %q\n", x.Op)
		dumpNode(b, x.L, d+1)
		dumpNode(b, x.R, d+1)
	case *ccast.Cond:
		b.WriteString("Cond\n")
		dumpNode(b, x.C, d+1)
		dumpNode(b, x.T, d+1)
		dumpNode(b, x.F, d+1)
	case *ccast.Call:
		fmt.Fprintf(b, "Call args=%d\n", len(x.Args))
		dumpNode(b, x.Fun, d+1)
		for _, a := range x.Args {
			dumpNode(b, a, d+1)
		}
	case *ccast.KernelLaunch:
		fmt.Fprintf(b, "KernelLaunch cfg=%d args=%d\n", len(x.Config), len(x.Args))
		dumpNode(b, x.Fun, d+1)
		for _, e := range x.Config {
			dumpNode(b, e, d+1)
		}
		for _, a := range x.Args {
			dumpNode(b, a, d+1)
		}
	case *ccast.Index:
		b.WriteString("Index\n")
		dumpNode(b, x.X, d+1)
		dumpNode(b, x.I, d+1)
	case *ccast.Member:
		fmt.Fprintf(b, "Member %q arrow=%v\n", x.Name, x.Arrow)
		dumpNode(b, x.X, d+1)
	case *ccast.Cast:
		fmt.Fprintf(b, "Cast style=%d to=%s\n", x.Style, typeStr(x.To))
		dumpTypeDims(b, x.To, d+1)
		dumpNode(b, x.X, d+1)
	case *ccast.SizeofExpr:
		fmt.Fprintf(b, "Sizeof type=%s\n", typeStr(x.Type))
		dumpTypeDims(b, x.Type, d+1)
		if x.X != nil {
			dumpNode(b, x.X, d+1)
		}
	case *ccast.NewExpr:
		fmt.Fprintf(b, "New type=%s args=%d\n", typeStr(x.Type), len(x.Args))
		dumpTypeDims(b, x.Type, d+1)
		if x.Count != nil {
			dumpNode(b, x.Count, d+1)
		}
		for _, a := range x.Args {
			dumpNode(b, a, d+1)
		}
	case *ccast.DeleteExpr:
		fmt.Fprintf(b, "Delete array=%v\n", x.Array)
		dumpNode(b, x.X, d+1)
	case *ccast.Comma:
		b.WriteString("Comma\n")
		dumpNode(b, x.L, d+1)
		dumpNode(b, x.R, d+1)
	case *ccast.InitList:
		fmt.Fprintf(b, "InitList n=%d\n", len(x.Elems))
		for _, e := range x.Elems {
			dumpNode(b, e, d+1)
		}
	case *ccast.Paren:
		b.WriteString("Paren\n")
		dumpNode(b, x.X, d+1)

	// Statements.
	case *ccast.Block:
		fmt.Fprintf(b, "Block n=%d\n", len(x.Stmts))
		for _, s := range x.Stmts {
			dumpNode(b, s, d+1)
		}
	case *ccast.ExprStmt:
		b.WriteString("ExprStmt\n")
		dumpNode(b, x.X, d+1)
	case *ccast.DeclStmt:
		b.WriteString("DeclStmt\n")
		dumpNode(b, x.Decl, d+1)
	case *ccast.If:
		b.WriteString("If\n")
		dumpNode(b, x.Cond, d+1)
		dumpNode(b, x.Then, d+1)
		dumpNode(b, x.Else, d+1)
	case *ccast.While:
		b.WriteString("While\n")
		dumpNode(b, x.Cond, d+1)
		dumpNode(b, x.Body, d+1)
	case *ccast.DoWhile:
		b.WriteString("DoWhile\n")
		dumpNode(b, x.Body, d+1)
		dumpNode(b, x.Cond, d+1)
	case *ccast.For:
		b.WriteString("For\n")
		dumpNode(b, x.Init, d+1)
		dumpNode(b, x.Cond, d+1)
		dumpNode(b, x.Post, d+1)
		dumpNode(b, x.Body, d+1)
	case *ccast.Switch:
		fmt.Fprintf(b, "Switch cases=%d\n", len(x.Cases))
		dumpNode(b, x.Tag, d+1)
		for _, cc := range x.Cases {
			dumpNode(b, cc, d+1)
		}
	case *ccast.CaseClause:
		fmt.Fprintf(b, "Case values=%d body=%d\n", len(x.Values), len(x.Body))
		for _, v := range x.Values {
			dumpNode(b, v, d+1)
		}
		for _, s := range x.Body {
			dumpNode(b, s, d+1)
		}
	case *ccast.Break:
		b.WriteString("Break\n")
	case *ccast.Continue:
		b.WriteString("Continue\n")
	case *ccast.Return:
		b.WriteString("Return\n")
		if x.X != nil {
			dumpNode(b, x.X, d+1)
		}
	case *ccast.Goto:
		fmt.Fprintf(b, "Goto %q\n", x.Label)
	case *ccast.Label:
		fmt.Fprintf(b, "Label %q\n", x.Name)
		dumpNode(b, x.Stmt, d+1)
	case *ccast.Empty:
		b.WriteString("Empty\n")

	// Declarations.
	case *ccast.Declarator:
		fmt.Fprintf(b, "Declarator %q type=%s\n", x.Name, typeStr(x.Type))
		dumpTypeDims(b, x.Type, d+1)
		if x.Init != nil {
			dumpNode(b, x.Init, d+1)
		}
	case *ccast.VarDecl:
		fmt.Fprintf(b, "VarDecl global=%v n=%d\n", x.Global, len(x.Names))
		for _, dl := range x.Names {
			dumpNode(b, dl, d+1)
		}
	case *ccast.Param:
		fmt.Fprintf(b, "Param %q type=%s\n", x.Name, typeStr(x.Type))
		dumpTypeDims(b, x.Type, d+1)
	case *ccast.FuncDecl:
		fmt.Fprintf(b, "FuncDecl %q ret=%s variadic=%v quals=%d ns=%q class=%q\n",
			x.Name, typeStr(x.Ret), x.Variadic, x.Quals, x.Namespace, x.Class)
		for _, p := range x.Params {
			dumpNode(b, p, d+1)
		}
		if x.Body != nil {
			dumpNode(b, x.Body, d+1)
		}
	case *ccast.Field:
		fmt.Fprintf(b, "Field %q type=%s\n", x.Name, typeStr(x.Type))
		dumpTypeDims(b, x.Type, d+1)
	case *ccast.RecordDecl:
		fmt.Fprintf(b, "Record kind=%d %q fields=%d methods=%d\n", x.Kind, x.Name, len(x.Fields), len(x.Methods))
		for _, fl := range x.Fields {
			dumpNode(b, fl, d+1)
		}
		for _, m := range x.Methods {
			dumpNode(b, m, d+1)
		}
	case *ccast.EnumDecl:
		fmt.Fprintf(b, "Enum %q members=%v\n", x.Name, x.Members)
	case *ccast.TypedefDecl:
		fmt.Fprintf(b, "Typedef %q type=%s\n", x.Name, typeStr(x.Type))
		dumpTypeDims(b, x.Type, d+1)
	case *ccast.NamespaceDecl:
		fmt.Fprintf(b, "Namespace %q n=%d\n", x.Name, len(x.Decls))
		for _, dd := range x.Decls {
			dumpNode(b, dd, d+1)
		}
	case *ccast.UsingDecl:
		fmt.Fprintf(b, "Using %q ns=%v\n", x.Target, x.IsNamespace)
	case *ccast.PPDirective:
		fmt.Fprintf(b, "PP %q\n", x.Text)
	case *ccast.BadDecl:
		fmt.Fprintf(b, "Bad %q\n", x.Reason)
	default:
		panic(fmt.Sprintf("dumpNode: unhandled node type %T", n))
	}
}
