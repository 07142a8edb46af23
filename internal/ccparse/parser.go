// Package ccparse parses the C/C++/CUDA dialect used by the assessment
// subjects into ccast trees.
//
// The parser is recursive descent with index-based lookahead over a
// pre-lexed token slice, plus a small amount of backtracking for the
// declaration-vs-expression and cast-vs-parenthesis ambiguities. It is
// error tolerant: a declaration that cannot be parsed becomes a BadDecl
// and parsing resumes at the next synchronization point, so one exotic
// construct does not lose a file.
//
// Allocation model (the cold-path fast path): tokens land in a pooled
// per-parser buffer, AST nodes are slab-allocated from a ccast.Arena, and
// child lists (arguments, statements, declarators) accumulate in reusable
// scratch slices before being carved into arena-backed storage at their
// exact final length. Options.Reference disables all of it, giving the
// pre-optimization heap path for differential testing.
package ccparse

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ccast"
	"repro/internal/cclex"
	"repro/internal/par"
	"repro/internal/srcfile"
)

// Error is a parse diagnostic.
type Error struct {
	File      string
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

// Options configures parsing.
type Options struct {
	// Workers bounds the concurrency of ParseAll: 0 means GOMAXPROCS,
	// 1 forces sequential parsing. Files are independent, so the result
	// is identical at any worker count.
	Workers int
	// Intern, when set, canonicalizes identifiers against a shared
	// corpus-level table so every file's spelling of the same name is one
	// string. ParseAll supplies a table automatically when none is given.
	Intern *cclex.Interner
	// Reference forces the pre-optimization allocation path: every node
	// comes from the heap, child lists grow from nil, and identifiers
	// intern per-file. Differential tests run it against the arena path;
	// production callers leave it false.
	Reference bool
}

// Parse parses one file. The returned unit is non-nil even when errors are
// reported; unparseable regions appear as BadDecl nodes. Its nodes come
// from a private arena, freed wholesale when the unit becomes
// unreachable.
func Parse(f *srcfile.File, opts Options) (*ccast.TranslationUnit, []*Error) {
	return ParseInto(f, opts, &ccast.Arena{})
}

// ParseInto is Parse carving the unit's nodes from the caller's arena a
// (ignored in reference mode). The unit is valid until a is reset: a
// caller that reuses one arena across files, as ParseAll's workers and
// core.Assessor's cold load do, keeps nothing of a unit it resets.
func ParseInto(f *srcfile.File, opts Options, a *ccast.Arena) (*ccast.TranslationUnit, []*Error) {
	lx := cclex.New(f.Src)
	lx.CUDA = f.Lang == srcfile.LangCUDA
	lx.KeepComments = true // always collect; surfaced on the unit

	p := getParser()
	p.file = f
	p.a = a // untouched in reference mode; keeps alloc sites nil-safe
	if opts.Reference {
		p.ref = true
	} else {
		lx.Intern = opts.Intern
	}
	p.prelex(lx)

	tu := &ccast.TranslationUnit{File: f}
	tu.SetSpan(srcfile.Span{Start: srcfile.Pos{Line: 1, Col: 1}})

	mark := len(p.scratchDecl)
	for p.tok.Kind != cclex.KindEOF {
		d := p.parseTopDecl()
		if d != nil {
			p.scratchDecl = append(p.scratchDecl, d)
		}
	}
	tu.Decls = p.carveDecls(mark)
	tu.Comments = p.comments
	for _, le := range lx.Errors() {
		p.errs = append(p.errs, &Error{File: f.Path, Line: le.Line, Col: le.Col, Msg: le.Msg})
	}
	errs := p.errs
	putParser(p)
	return tu, errs
}

type parser struct {
	file *srcfile.File

	// Pre-lexed significant tokens, terminated by one KindEOF entry.
	// tok mirrors toks[idx] (a copy, so local fix-ups like splitting '>>'
	// do not disturb the buffer).
	toks []cclex.Token
	idx  int
	tok  cclex.Token

	a   *ccast.Arena // never nil; unused when ref is set
	ref bool         // reference (heap) allocation mode

	errs     []*Error
	comments []ccast.CommentInfo

	// Scratch accumulators for child lists: append at the top, carve from
	// a saved mark. Nesting is safe because every production restores the
	// scratch to its mark before returning.
	scratchComments []ccast.CommentInfo
	scratchExpr     []ccast.Expr
	scratchStmt     []ccast.Stmt
	scratchDecl     []ccast.Decl
	scratchDtor     []*ccast.Declarator
	scratchParam    []*ccast.Param
	scratchField    []*ccast.Field
	scratchFunc     []*ccast.FuncDecl
	scratchCase     []*ccast.CaseClause

	// typedefNames accumulates names introduced by typedef/using/class so
	// the decl-vs-expr heuristic can recognize them.
	typedefNames map[string]bool

	namespace []string // current namespace path
	class     string   // current class name when parsing methods
	panicking bool     // recovering from an error; suppress cascades
}

// parserPool recycles parser state (token buffer, scratch slices, typedef
// table) across files so steady-state parsing allocates almost nothing
// beyond the AST itself.
var parserPool = sync.Pool{New: func() any { return &parser{} }}

func getParser() *parser { return parserPool.Get().(*parser) }

func putParser(p *parser) {
	p.file = nil
	p.a = nil
	p.ref = false
	p.errs = nil
	p.comments = nil
	p.scratchComments = clearScratch(p.scratchComments)
	p.scratchExpr = clearScratch(p.scratchExpr)
	p.scratchStmt = clearScratch(p.scratchStmt)
	p.scratchDecl = clearScratch(p.scratchDecl)
	p.scratchDtor = clearScratch(p.scratchDtor)
	p.scratchParam = clearScratch(p.scratchParam)
	p.scratchField = clearScratch(p.scratchField)
	p.scratchFunc = clearScratch(p.scratchFunc)
	p.scratchCase = clearScratch(p.scratchCase)
	if p.typedefNames != nil {
		clear(p.typedefNames)
	}
	p.namespace = p.namespace[:0]
	p.class = ""
	p.panicking = false
	parserPool.Put(p)
}

// clearScratch empties a scratch slice for the next parse. It zeroes
// the backing array up to capacity first: entries past the length still
// point at nodes of earlier units, and a pooled parser would otherwise
// keep those units' arena slabs alive through another collection.
func clearScratch[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// prelex tokenizes the whole file into the reusable token buffer, routing
// comments aside, and primes tok on the first significant token.
func (p *parser) prelex(lx *cclex.Lexer) {
	toks := p.toks
	if toks == nil {
		toks = make([]cclex.Token, 0, len(p.file.Src)/6+16)
	} else {
		toks = toks[:0]
	}
	comments := p.scratchComments[:0]
	for {
		t := lx.Next()
		if t.Kind == cclex.KindComment {
			comments = append(comments, ccast.CommentInfo{Line: t.Line, Col: t.Col, Text: t.Text})
			continue
		}
		toks = append(toks, t)
		if t.Kind == cclex.KindEOF {
			break
		}
	}
	p.toks = toks
	p.scratchComments = comments
	p.comments = carve(p, &p.a.Comments, comments)
	p.idx = 0
	p.tok = toks[0]
}

// next advances to the following significant token.
func (p *parser) next() {
	if p.idx+1 < len(p.toks) {
		p.idx++
	}
	p.tok = p.toks[p.idx]
}

// at returns the token n positions ahead of the current one (0 = current),
// clamped to the trailing EOF.
func (p *parser) at(n int) cclex.Token {
	i := p.idx + n
	if i >= len(p.toks) {
		i = len(p.toks) - 1
	}
	return p.toks[i]
}

// peek returns the n-th upcoming significant token (0 = the one after tok).
func (p *parser) peek(n int) cclex.Token { return p.at(n + 1) }

// alloc returns a zeroed node from the arena slab, or the heap in
// reference mode.
func alloc[T any](p *parser, s *ccast.Slab[T]) *T {
	if p.ref {
		return new(T)
	}
	return ccast.Alloc(s)
}

// carve copies a scratch range into arena-backed (or, in reference mode,
// heap) storage at its exact final length.
func carve[T any](p *parser, s *ccast.Slab[T], src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if p.ref {
		out := make([]T, len(src))
		copy(out, src)
		return out
	}
	return ccast.Carve(s, src)
}

func (p *parser) carveExprs(mark int) []ccast.Expr {
	out := carve(p, &p.a.Exprs, p.scratchExpr[mark:])
	p.scratchExpr = p.scratchExpr[:mark]
	return out
}

func (p *parser) carveStmts(mark int) []ccast.Stmt {
	out := carve(p, &p.a.Stmts, p.scratchStmt[mark:])
	p.scratchStmt = p.scratchStmt[:mark]
	return out
}

func (p *parser) carveDecls(mark int) []ccast.Decl {
	out := carve(p, &p.a.Decls, p.scratchDecl[mark:])
	p.scratchDecl = p.scratchDecl[:mark]
	return out
}

func (p *parser) carveDtors(mark int) []*ccast.Declarator {
	out := carve(p, &p.a.Declarators, p.scratchDtor[mark:])
	p.scratchDtor = p.scratchDtor[:mark]
	return out
}

func (p *parser) carveParams(mark int) []*ccast.Param {
	out := carve(p, &p.a.Params, p.scratchParam[mark:])
	p.scratchParam = p.scratchParam[:mark]
	return out
}

func (p *parser) carveFields(mark int) []*ccast.Field {
	out := carve(p, &p.a.Fields, p.scratchField[mark:])
	p.scratchField = p.scratchField[:mark]
	return out
}

func (p *parser) carveFuncs(mark int) []*ccast.FuncDecl {
	out := carve(p, &p.a.Funcs, p.scratchFunc[mark:])
	p.scratchFunc = p.scratchFunc[:mark]
	return out
}

func (p *parser) carveCases(mark int) []*ccast.CaseClause {
	out := carve(p, &p.a.Cases, p.scratchCase[mark:])
	p.scratchCase = p.scratchCase[:mark]
	return out
}

func (p *parser) pos() srcfile.Pos {
	return srcfile.Pos{Line: p.tok.Line, Col: p.tok.Col, Offset: p.tok.Off}
}

func (p *parser) errorf(format string, args ...interface{}) {
	if p.panicking {
		return
	}
	p.errs = append(p.errs, &Error{
		File: p.file.Path, Line: p.tok.Line, Col: p.tok.Col,
		Msg: fmt.Sprintf(format, args...),
	})
}

func (p *parser) expect(k cclex.Kind) cclex.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf("expected %s, found %s", k, t)
		return t
	}
	p.next()
	return t
}

func (p *parser) accept(k cclex.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.tok.Is(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) span(start srcfile.Pos) srcfile.Span {
	return srcfile.Span{Start: start, End: srcfile.Pos{Line: p.tok.Line, Col: p.tok.Col, Offset: p.tok.Off}}
}

func (p *parser) setSpan(n ccast.Spanned, start srcfile.Pos) {
	n.SetSpan(p.span(start))
}

// syncTopLevel skips tokens until a likely declaration boundary.
func (p *parser) syncTopLevel() {
	depth := 0
	for p.tok.Kind != cclex.KindEOF {
		switch p.tok.Kind {
		case cclex.KindLBrace:
			depth++
		case cclex.KindRBrace:
			if depth == 0 {
				p.next()
				return
			}
			depth--
		case cclex.KindSemi:
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Top-level declarations

var builtinTypeNames = map[string]bool{
	"size_t": true, "ssize_t": true, "ptrdiff_t": true,
	"int8_t": true, "int16_t": true, "int32_t": true, "int64_t": true,
	"uint8_t": true, "uint16_t": true, "uint32_t": true, "uint64_t": true,
	"uintptr_t": true, "intptr_t": true, "wchar_t": true,
	"float2": true, "float3": true, "float4": true, "dim3": true,
	"cudaError_t": true, "cudaStream_t": true, "FILE": true,
}

func (p *parser) isTypeName(name string) bool {
	if builtinTypeNames[name] {
		return true
	}
	if p.typedefNames != nil && p.typedefNames[name] {
		return true
	}
	return false
}

func (p *parser) recordTypeName(name string) {
	if name == "" {
		return
	}
	if p.typedefNames == nil {
		p.typedefNames = make(map[string]bool)
	}
	p.typedefNames[name] = true
}

func (p *parser) parseTopDecl() ccast.Decl {
	p.panicking = false
	start := p.pos()
	switch {
	case p.tok.Kind == cclex.KindPPDirective:
		d := alloc(p, &p.a.PPDir)
		d.Text = p.tok.Text
		p.setSpan(d, start)
		p.next()
		return d
	case p.tok.Kind == cclex.KindSemi:
		p.next()
		return nil
	case p.tok.Is("namespace"):
		return p.parseNamespace()
	case p.tok.Is("using"):
		return p.parseUsing()
	case p.tok.Is("template"):
		p.skipTemplateHeader()
		return p.parseTopDecl()
	case p.tok.Is("typedef"):
		return p.parseTypedef()
	case p.tok.Is("extern") && p.peek(0).Kind == cclex.KindStringLit:
		return p.parseExternC()
	case p.tok.Is("struct") || p.tok.Is("union") || p.tok.Is("class"):
		// Definition if a '{' follows the tag name; otherwise a declaration
		// using an elaborated type.
		if p.peek(0).Kind == cclex.KindIdent &&
			(p.peek(1).Kind == cclex.KindLBrace || p.peek(1).Kind == cclex.KindColon) {
			return p.parseRecord()
		}
		return p.parseVarOrFunc()
	case p.tok.Is("enum"):
		if p.peek(0).Kind == cclex.KindIdent && p.peek(1).Kind == cclex.KindLBrace ||
			p.peek(0).Kind == cclex.KindLBrace {
			return p.parseEnum()
		}
		return p.parseVarOrFunc()
	default:
		return p.parseVarOrFunc()
	}
}

func (p *parser) parseNamespace() ccast.Decl {
	start := p.pos()
	p.next() // namespace
	name := ""
	if p.tok.Kind == cclex.KindIdent {
		name = p.tok.Text
		p.next()
	}
	ns := &ccast.NamespaceDecl{Name: name}
	p.expect(cclex.KindLBrace)
	p.namespace = append(p.namespace, name)
	mark := len(p.scratchDecl)
	for p.tok.Kind != cclex.KindRBrace && p.tok.Kind != cclex.KindEOF {
		d := p.parseTopDecl()
		if d != nil {
			p.scratchDecl = append(p.scratchDecl, d)
		}
	}
	ns.Decls = p.carveDecls(mark)
	p.namespace = p.namespace[:len(p.namespace)-1]
	p.expect(cclex.KindRBrace)
	p.accept(cclex.KindSemi)
	p.setSpan(ns, start)
	return ns
}

func (p *parser) parseUsing() ccast.Decl {
	start := p.pos()
	p.next() // using
	u := &ccast.UsingDecl{}
	if p.acceptKeyword("namespace") {
		u.IsNamespace = true
	}
	// "using Alias = Type;" is a typedef.
	if p.tok.Kind == cclex.KindIdent && p.peek(0).Kind == cclex.KindAssign {
		name := p.tok.Text
		p.next()
		p.next() // =
		ty := p.parseType()
		p.expect(cclex.KindSemi)
		p.recordTypeName(name)
		td := &ccast.TypedefDecl{Name: name, Type: ty}
		p.setSpan(td, start)
		return td
	}
	var sb strings.Builder
	for p.tok.Kind == cclex.KindIdent || p.tok.Kind == cclex.KindColonColon {
		sb.WriteString(p.tok.Text)
		p.next()
	}
	u.Target = sb.String()
	p.expect(cclex.KindSemi)
	p.setSpan(u, start)
	return u
}

func (p *parser) skipTemplateHeader() {
	p.next() // template
	if p.tok.Kind != cclex.KindLess {
		return
	}
	depth := 0
	for p.tok.Kind != cclex.KindEOF {
		switch p.tok.Kind {
		case cclex.KindLess:
			depth++
		case cclex.KindGreater:
			depth--
			if depth == 0 {
				p.next()
				return
			}
		case cclex.KindShr:
			depth -= 2
			if depth <= 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

func (p *parser) parseTypedef() ccast.Decl {
	start := p.pos()
	p.next() // typedef
	ty := p.parseType()
	// "typedef struct Tag { ... } Name;": consume the record body. The
	// member structure is not needed for the typedef itself (the record is
	// also visible via its tag when declared separately).
	if p.tok.Kind == cclex.KindLBrace {
		depth := 0
		for p.tok.Kind != cclex.KindEOF {
			switch p.tok.Kind {
			case cclex.KindLBrace:
				depth++
			case cclex.KindRBrace:
				depth--
			}
			p.next()
			if depth == 0 {
				break
			}
		}
	}
	name := ""
	if p.tok.Kind == cclex.KindIdent {
		name = p.tok.Text
		p.next()
	}
	// Array suffix on typedef name.
	for p.tok.Kind == cclex.KindLBracket {
		p.next()
		if p.tok.Kind != cclex.KindRBracket {
			e := p.parseExpr()
			ty.ArrayDims = append(ty.ArrayDims, e)
		} else {
			ty.ArrayDims = append(ty.ArrayDims, nil)
		}
		p.expect(cclex.KindRBracket)
	}
	p.expect(cclex.KindSemi)
	p.recordTypeName(name)
	td := &ccast.TypedefDecl{Name: name, Type: ty}
	p.setSpan(td, start)
	return td
}

func (p *parser) parseExternC() ccast.Decl {
	start := p.pos()
	p.next() // extern
	p.next() // "C"
	if p.tok.Kind == cclex.KindLBrace {
		p.next()
		ns := &ccast.NamespaceDecl{Name: `extern "C"`}
		mark := len(p.scratchDecl)
		for p.tok.Kind != cclex.KindRBrace && p.tok.Kind != cclex.KindEOF {
			d := p.parseTopDecl()
			if d != nil {
				p.scratchDecl = append(p.scratchDecl, d)
			}
		}
		ns.Decls = p.carveDecls(mark)
		p.expect(cclex.KindRBrace)
		p.setSpan(ns, start)
		return ns
	}
	return p.parseVarOrFunc()
}

func (p *parser) parseEnum() ccast.Decl {
	start := p.pos()
	p.next() // enum
	p.acceptKeyword("class")
	e := &ccast.EnumDecl{}
	if p.tok.Kind == cclex.KindIdent {
		e.Name = p.tok.Text
		p.recordTypeName(e.Name)
		p.next()
	}
	p.expect(cclex.KindLBrace)
	for p.tok.Kind != cclex.KindRBrace && p.tok.Kind != cclex.KindEOF {
		if p.tok.Kind == cclex.KindIdent {
			e.Members = append(e.Members, p.tok.Text)
			p.next()
			if p.accept(cclex.KindAssign) {
				p.parseAssignExpr()
			}
		}
		if !p.accept(cclex.KindComma) {
			break
		}
	}
	p.expect(cclex.KindRBrace)
	p.expect(cclex.KindSemi)
	p.setSpan(e, start)
	return e
}

func (p *parser) parseRecord() ccast.Decl {
	start := p.pos()
	kind := ccast.RecordStruct
	switch p.tok.Text {
	case "union":
		kind = ccast.RecordUnion
	case "class":
		kind = ccast.RecordClass
	}
	p.next()
	r := &ccast.RecordDecl{Kind: kind}
	if p.tok.Kind == cclex.KindIdent {
		r.Name = p.tok.Text
		p.recordTypeName(r.Name)
		p.next()
	}
	// Base-class list: ": public Base, ..." — skipped structurally.
	if p.accept(cclex.KindColon) {
		for p.tok.Kind != cclex.KindLBrace && p.tok.Kind != cclex.KindEOF {
			p.next()
		}
	}
	p.expect(cclex.KindLBrace)
	prevClass := p.class
	p.class = r.Name
	fieldMark := len(p.scratchField)
	funcMark := len(p.scratchFunc)
	for p.tok.Kind != cclex.KindRBrace && p.tok.Kind != cclex.KindEOF {
		// Access specifiers.
		if (p.tok.Is("public") || p.tok.Is("private") || p.tok.Is("protected")) &&
			p.peek(0).Kind == cclex.KindColon {
			p.next()
			p.next()
			continue
		}
		if p.tok.Kind == cclex.KindPPDirective {
			p.next()
			continue
		}
		if p.tok.Is("friend") {
			// Skip friend declarations to the semicolon.
			for p.tok.Kind != cclex.KindSemi && p.tok.Kind != cclex.KindEOF {
				p.next()
			}
			p.next()
			continue
		}
		if p.tok.Is("typedef") {
			p.parseTypedef()
			continue
		}
		if p.tok.Is("template") {
			p.skipTemplateHeader()
			continue
		}
		d := p.parseMemberDecl(r.Name)
		switch d := d.(type) {
		case *ccast.FuncDecl:
			p.scratchFunc = append(p.scratchFunc, d)
		case *ccast.VarDecl:
			for _, dd := range d.Names {
				f := alloc(p, &p.a.Field)
				f.Name, f.Type = dd.Name, dd.Type
				f.SetSpan(dd.Span())
				p.scratchField = append(p.scratchField, f)
			}
		case nil:
			// error already recorded; avoid livelock
			if p.tok.Kind != cclex.KindRBrace {
				p.next()
			}
		}
	}
	r.Fields = p.carveFields(fieldMark)
	r.Methods = p.carveFuncs(funcMark)
	p.class = prevClass
	p.expect(cclex.KindRBrace)
	p.expect(cclex.KindSemi)
	p.setSpan(r, start)
	return r
}

// parseMemberDecl parses one class member (method or field group).
func (p *parser) parseMemberDecl(className string) ccast.Decl {
	start := p.pos()
	quals := p.parseQualifiers()

	// Constructor / destructor: Name( or ~Name(.
	isDtor := false
	if p.tok.Kind == cclex.KindTilde {
		isDtor = true
		p.next()
	}
	if p.tok.Kind == cclex.KindIdent && p.tok.Text == className &&
		(isDtor || p.peek(0).Kind == cclex.KindLParen) {
		name := p.tok.Text
		if isDtor {
			name = "~" + name
		}
		p.next()
		ret := alloc(p, &p.a.Type)
		ret.Name = "void"
		fd := alloc(p, &p.a.FuncDecl)
		fd.Name, fd.Quals, fd.Class = name, quals, className
		fd.Namespace = strings.Join(p.namespace, "::")
		fd.Ret = ret
		p.parseFuncRest(fd)
		p.setSpan(fd, start)
		return fd
	}
	if isDtor {
		p.errorf("expected destructor name")
		p.syncTopLevel()
		return nil
	}

	ty := p.parseType()
	ty.Quals |= quals
	if p.tok.Kind != cclex.KindIdent {
		p.errorf("expected member name, found %s", p.tok)
		p.syncTopLevel()
		return nil
	}
	name := p.tok.Text
	p.next()
	applyDeclaratorSuffix(ty, p)

	if p.tok.Kind == cclex.KindLParen {
		fd := alloc(p, &p.a.FuncDecl)
		fd.Name, fd.Ret, fd.Quals, fd.Class = name, ty, quals, className
		fd.Namespace = strings.Join(p.namespace, "::")
		p.parseFuncRest(fd)
		p.setSpan(fd, start)
		return fd
	}
	return p.parseVarDeclRest(start, ty, name, quals)
}

// parseQualifiers consumes leading storage-class/qualifier keywords.
func (p *parser) parseQualifiers() ccast.TypeQual {
	var q ccast.TypeQual
	for {
		switch {
		case p.acceptKeyword("static"):
			q |= ccast.QualStatic
		case p.acceptKeyword("extern"):
			q |= ccast.QualExtern
		case p.acceptKeyword("inline"), p.acceptKeyword("__forceinline__"):
			q |= ccast.QualInline
		case p.acceptKeyword("virtual"):
			q |= ccast.QualVirtual
		case p.acceptKeyword("explicit"):
			q |= ccast.QualExplicit
		case p.acceptKeyword("constexpr"):
			q |= ccast.QualConstexpr
		case p.acceptKeyword("mutable"):
			q |= ccast.QualMutable
		case p.acceptKeyword("register"):
			q |= ccast.QualRegister
		case p.acceptKeyword("__global__"):
			q |= ccast.QualCUDAGlobal
		case p.acceptKeyword("__device__"):
			q |= ccast.QualCUDADevice
		case p.acceptKeyword("__host__"):
			q |= ccast.QualCUDAHost
		case p.acceptKeyword("__shared__"):
			q |= ccast.QualCUDAShared
		case p.acceptKeyword("__constant__"):
			q |= ccast.QualCUDAConstant
		default:
			return q
		}
	}
}

// typeKeywords are specifier keywords that begin or continue a base type.
var typeKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "signed": true, "unsigned": true,
	"bool": true, "_Bool": true, "auto": true,
}

// parseType parses a type specifier plus pointer declarator prefix.
func (p *parser) parseType() *ccast.Type {
	start := p.pos()
	ty := alloc(p, &p.a.Type)
	var partsArr [4]string
	parts := partsArr[:0]

	for {
		switch {
		case p.acceptKeyword("const"):
			ty.Quals |= ccast.QualConst
		case p.acceptKeyword("volatile"):
			ty.Quals |= ccast.QualVolatile
		case p.acceptKeyword("restrict"), p.acceptKeyword("__restrict__"):
			// qualifier without structural effect
		case p.acceptKeyword("unsigned"):
			ty.Quals |= ccast.QualUnsigned
			parts = append(parts, "unsigned")
		case p.acceptKeyword("signed"):
			ty.Quals |= ccast.QualSigned
			parts = append(parts, "signed")
		case p.tok.Is("struct") || p.tok.Is("union") || p.tok.Is("class") ||
			p.tok.Is("enum"):
			kw := p.tok.Text
			p.next()
			if p.tok.Kind == cclex.KindIdent {
				parts = append(parts, kw+" "+p.tok.Text)
				p.next()
			} else {
				parts = append(parts, kw)
			}
			goto specDone
		case p.tok.Kind == cclex.KindKeyword && typeKeywords[p.tok.Text]:
			parts = append(parts, p.tok.Text)
			p.next()
			// Multi-word types: long long, long double, unsigned int...
			for p.tok.Kind == cclex.KindKeyword && typeKeywords[p.tok.Text] {
				parts = append(parts, p.tok.Text)
				p.next()
			}
			goto specDone
		case p.tok.Kind == cclex.KindIdent:
			parts = append(parts, p.parseQualifiedName())
			goto specDone
		case p.tok.Is("typename"):
			p.next()
		default:
			goto specDone
		}
	}
specDone:
	// Trailing const: "int const".
	for p.acceptKeyword("const") {
		ty.Quals |= ccast.QualConst
	}
	ty.Name = strings.Join(parts, " ")
	if ty.Name == "" {
		ty.Name = "int" // implicit int fallback for robustness
	}
	for {
		if p.accept(cclex.KindStar) {
			ty.PtrDepth++
			for p.acceptKeyword("const") || p.acceptKeyword("volatile") ||
				p.acceptKeyword("restrict") || p.acceptKeyword("__restrict__") {
			}
			continue
		}
		if p.accept(cclex.KindAmp) {
			ty.IsRef = true
			continue
		}
		break
	}
	p.setSpan(ty, start)
	return ty
}

// parseQualifiedName parses Ident(::Ident)* with balanced template args.
// The common case — a lone identifier — returns the interned token text
// without touching a builder.
func (p *parser) parseQualifiedName() string {
	if p.tok.Kind == cclex.KindIdent {
		nxt := p.peek(0)
		if nxt.Kind != cclex.KindColonColon &&
			(nxt.Kind != cclex.KindLess || !p.looksLikeTemplateArgsAt(1)) {
			name := p.tok.Text
			p.next()
			return name
		}
	}
	var sb strings.Builder
	for {
		if p.tok.Kind != cclex.KindIdent {
			break
		}
		sb.WriteString(p.tok.Text)
		p.next()
		// Template arguments: consume balanced <...> when it looks like a
		// template, i.e. next token opens '<' and some '>' closes before a
		// ';' at depth 0. We use a bounded scan.
		if p.tok.Kind == cclex.KindLess && p.looksLikeTemplateArgsAt(0) {
			sb.WriteString(p.consumeTemplateArgs())
		}
		if p.tok.Kind == cclex.KindColonColon && p.peek(0).Kind == cclex.KindIdent {
			sb.WriteString("::")
			p.next()
			continue
		}
		break
	}
	return sb.String()
}

// looksLikeTemplateArgsAt scans ahead from the '<' sitting d tokens past
// the current one for a matching '>' before any token that rules out a
// template argument list.
func (p *parser) looksLikeTemplateArgsAt(d int) bool {
	depth := 0
	for i := 0; i < 64; i++ {
		t := p.at(d + i)
		switch t.Kind {
		case cclex.KindLess:
			depth++
		case cclex.KindGreater:
			depth--
			if depth == 0 {
				return true
			}
		case cclex.KindShr:
			depth -= 2
			if depth <= 0 {
				return true
			}
		case cclex.KindSemi, cclex.KindLBrace, cclex.KindRBrace, cclex.KindEOF,
			cclex.KindAndAnd, cclex.KindOrOr, cclex.KindPlus, cclex.KindMinus,
			cclex.KindStringLit:
			return false
		case cclex.KindKeyword:
			// Type keywords inside <> support the template reading.
			if !typeKeywords[t.Text] && t.Text != "const" && t.Text != "unsigned" &&
				t.Text != "signed" && t.Text != "struct" {
				return false
			}
		case cclex.KindIdent, cclex.KindIntLit, cclex.KindComma, cclex.KindStar,
			cclex.KindColonColon, cclex.KindAmp:
			// plausible inside template args
		default:
			return false
		}
	}
	return false
}

func (p *parser) consumeTemplateArgs() string {
	var sb strings.Builder
	depth := 0
	for p.tok.Kind != cclex.KindEOF {
		switch p.tok.Kind {
		case cclex.KindLess:
			depth++
		case cclex.KindGreater:
			depth--
		case cclex.KindShr:
			depth -= 2
		}
		sb.WriteString(p.tok.Text)
		done := depth <= 0
		p.next()
		if done {
			break
		}
	}
	return sb.String()
}

// applyDeclaratorSuffix consumes array dimensions after a declared name.
func applyDeclaratorSuffix(ty *ccast.Type, p *parser) {
	for p.tok.Kind == cclex.KindLBracket {
		p.next()
		if p.tok.Kind == cclex.KindRBracket {
			ty.ArrayDims = append(ty.ArrayDims, nil)
		} else {
			ty.ArrayDims = append(ty.ArrayDims, p.parseExpr())
		}
		p.expect(cclex.KindRBracket)
	}
}

// parseVarOrFunc parses a top-level variable or function declaration.
func (p *parser) parseVarOrFunc() ccast.Decl {
	start := p.pos()
	quals := p.parseQualifiers()

	if p.tok.Kind == cclex.KindEOF {
		return nil
	}
	ty := p.parseType()
	ty.Quals |= quals

	if p.tok.Kind != cclex.KindIdent {
		// Could be "struct X;" style forward declaration.
		if p.accept(cclex.KindSemi) {
			return nil
		}
		p.errorf("expected declarator, found %s", p.tok)
		p.panicking = true
		bd := &ccast.BadDecl{Reason: "unparsed declaration"}
		p.setSpan(bd, start)
		p.syncTopLevel()
		return bd
	}

	name := p.parseQualifiedName()
	applyDeclaratorSuffix(ty, p)

	if p.tok.Kind == cclex.KindLParen {
		fd := alloc(p, &p.a.FuncDecl)
		fd.Name, fd.Ret, fd.Quals = name, ty, quals
		fd.Namespace = strings.Join(p.namespace, "::")
		if i := strings.LastIndex(name, "::"); i >= 0 {
			fd.Class = name[:i]
		}
		p.parseFuncRest(fd)
		p.setSpan(fd, start)
		return fd
	}
	return p.parseVarDeclRest(start, ty, name, quals)
}

// parseVarDeclRest parses declarators after the first name has been read.
func (p *parser) parseVarDeclRest(start srcfile.Pos, ty *ccast.Type, firstName string, quals ccast.TypeQual) ccast.Decl {
	vd := alloc(p, &p.a.VarDecl)
	vd.Global = p.class == ""
	first := alloc(p, &p.a.Declarator)
	first.Name, first.Type = firstName, ty
	first.SetSpan(p.span(start))
	mark := len(p.scratchDtor)
	p.scratchDtor = append(p.scratchDtor, first)

	if p.accept(cclex.KindAssign) {
		first.Init = p.parseInitializer()
	} else if p.tok.Kind == cclex.KindLBrace {
		first.Init = p.parseInitializer()
	}
	for p.accept(cclex.KindComma) {
		dstart := p.pos()
		dty := alloc(p, &p.a.Type)
		dty.Name, dty.Quals = ty.Name, ty.Quals
		for p.accept(cclex.KindStar) {
			dty.PtrDepth++
		}
		if p.tok.Kind != cclex.KindIdent {
			p.errorf("expected declarator name, found %s", p.tok)
			break
		}
		d := alloc(p, &p.a.Declarator)
		d.Name, d.Type = p.tok.Text, dty
		p.next()
		applyDeclaratorSuffix(dty, p)
		if p.accept(cclex.KindAssign) {
			d.Init = p.parseInitializer()
		}
		d.SetSpan(p.span(dstart))
		p.scratchDtor = append(p.scratchDtor, d)
	}
	p.expect(cclex.KindSemi)
	vd.Names = p.carveDtors(mark)
	p.setSpan(vd, start)
	return vd
}

func (p *parser) parseInitializer() ccast.Expr {
	if p.tok.Kind == cclex.KindLBrace {
		start := p.pos()
		p.next()
		il := alloc(p, &p.a.InitList)
		mark := len(p.scratchExpr)
		for p.tok.Kind != cclex.KindRBrace && p.tok.Kind != cclex.KindEOF {
			p.scratchExpr = append(p.scratchExpr, p.parseInitializer())
			if !p.accept(cclex.KindComma) {
				break
			}
		}
		il.Elems = p.carveExprs(mark)
		p.expect(cclex.KindRBrace)
		p.setSpan(il, start)
		return il
	}
	return p.parseAssignExpr()
}

// parseFuncRest parses parameters and optional body; p.tok is '('.
func (p *parser) parseFuncRest(fd *ccast.FuncDecl) {
	p.expect(cclex.KindLParen)
	if !p.accept(cclex.KindRParen) {
		mark := len(p.scratchParam)
		for {
			if p.accept(cclex.KindEllipsis) {
				fd.Variadic = true
				break
			}
			if p.tok.Is("void") && p.peek(0).Kind == cclex.KindRParen {
				p.next()
				break
			}
			pstart := p.pos()
			pq := p.parseQualifiers()
			pty := p.parseType()
			pty.Quals |= pq
			prm := alloc(p, &p.a.Param)
			prm.Type = pty
			if p.tok.Kind == cclex.KindIdent {
				prm.Name = p.tok.Text
				p.next()
			}
			applyDeclaratorSuffix(pty, p)
			if p.accept(cclex.KindAssign) {
				p.parseAssignExpr() // default argument, discarded
			}
			prm.SetSpan(p.span(pstart))
			p.scratchParam = append(p.scratchParam, prm)
			if !p.accept(cclex.KindComma) {
				break
			}
		}
		fd.Params = p.carveParams(mark)
		p.expect(cclex.KindRParen)
	}
	// Trailing qualifiers: const, override, noexcept-ish idents.
	for p.acceptKeyword("const") || p.acceptKeyword("override") {
	}
	// Constructor initializer list: ": field(x), ..." before the body.
	if p.accept(cclex.KindColon) {
		for p.tok.Kind != cclex.KindLBrace && p.tok.Kind != cclex.KindEOF &&
			p.tok.Kind != cclex.KindSemi {
			p.next()
		}
	}
	switch {
	case p.accept(cclex.KindSemi):
		// prototype
	case p.tok.Kind == cclex.KindLBrace:
		fd.Body = p.parseBlock()
	case p.accept(cclex.KindAssign):
		// "= 0;" pure virtual, "= default;", "= delete;"
		for p.tok.Kind != cclex.KindSemi && p.tok.Kind != cclex.KindEOF {
			p.next()
		}
		p.accept(cclex.KindSemi)
	default:
		p.errorf("expected function body or ';', found %s", p.tok)
		p.panicking = true
		p.syncTopLevel()
	}
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseBlock() *ccast.Block {
	start := p.pos()
	b := alloc(p, &p.a.Block)
	p.expect(cclex.KindLBrace)
	mark := len(p.scratchStmt)
	for p.tok.Kind != cclex.KindRBrace && p.tok.Kind != cclex.KindEOF {
		s := p.parseStmt()
		if s != nil {
			p.scratchStmt = append(p.scratchStmt, s)
		}
	}
	b.Stmts = p.carveStmts(mark)
	p.expect(cclex.KindRBrace)
	p.setSpan(b, start)
	return b
}

func (p *parser) parseStmt() ccast.Stmt {
	start := p.pos()
	switch {
	case p.tok.Kind == cclex.KindPPDirective:
		p.next()
		return nil
	case p.tok.Kind == cclex.KindLBrace:
		return p.parseBlock()
	case p.tok.Kind == cclex.KindSemi:
		p.next()
		e := alloc(p, &p.a.Empty)
		p.setSpan(e, start)
		return e
	case p.tok.Is("if"):
		return p.parseIf()
	case p.tok.Is("while"):
		return p.parseWhile()
	case p.tok.Is("do"):
		return p.parseDoWhile()
	case p.tok.Is("for"):
		return p.parseFor()
	case p.tok.Is("switch"):
		return p.parseSwitch()
	case p.tok.Is("break"):
		p.next()
		p.expect(cclex.KindSemi)
		s := alloc(p, &p.a.Break)
		p.setSpan(s, start)
		return s
	case p.tok.Is("continue"):
		p.next()
		p.expect(cclex.KindSemi)
		s := alloc(p, &p.a.Continue)
		p.setSpan(s, start)
		return s
	case p.tok.Is("return"):
		p.next()
		r := alloc(p, &p.a.Return)
		if p.tok.Kind != cclex.KindSemi {
			r.X = p.parseExpr()
		}
		p.expect(cclex.KindSemi)
		p.setSpan(r, start)
		return r
	case p.tok.Is("goto"):
		p.next()
		g := alloc(p, &p.a.Goto)
		if p.tok.Kind == cclex.KindIdent {
			g.Label = p.tok.Text
			p.next()
		}
		p.expect(cclex.KindSemi)
		p.setSpan(g, start)
		return g
	case p.tok.Is("try"):
		// try { ... } catch (...) { ... } — modeled as the try block
		// followed by catch bodies folded into a Block.
		p.next()
		blk := p.parseBlock()
		for p.tok.Is("catch") {
			p.next()
			p.expect(cclex.KindLParen)
			depth := 1
			for depth > 0 && p.tok.Kind != cclex.KindEOF {
				switch p.tok.Kind {
				case cclex.KindLParen:
					depth++
				case cclex.KindRParen:
					depth--
				}
				p.next()
			}
			cb := p.parseBlock()
			blk.Stmts = append(blk.Stmts, cb)
		}
		return blk
	case p.tok.Is("throw"):
		p.next()
		if p.tok.Kind != cclex.KindSemi {
			p.parseExpr()
		}
		p.expect(cclex.KindSemi)
		id := alloc(p, &p.a.Ident)
		id.Name = "throw"
		s := alloc(p, &p.a.ExprStmt)
		s.X = id
		p.setSpan(s, start)
		return s
	// Label: Ident ':' not followed by ':' (to exclude ::).
	case p.tok.Kind == cclex.KindIdent && p.peek(0).Kind == cclex.KindColon &&
		p.peek(1).Kind != cclex.KindColon:
		l := alloc(p, &p.a.Label)
		l.Name = p.tok.Text
		p.next()
		p.next()
		l.Stmt = p.parseStmt()
		p.setSpan(l, start)
		return l
	default:
		if p.startsDecl() {
			return p.parseDeclStmt()
		}
		return p.parseExprStmt()
	}
}

// startsDecl decides whether the upcoming tokens begin a declaration.
func (p *parser) startsDecl() bool {
	t := p.tok
	if t.Kind == cclex.KindKeyword {
		switch t.Text {
		case "const", "static", "struct", "union", "enum", "unsigned",
			"signed", "volatile", "register", "auto", "constexpr",
			"__shared__", "__device__", "__constant__", "typename":
			return true
		}
		return typeKeywords[t.Text]
	}
	if t.Kind != cclex.KindIdent {
		return false
	}
	// Ident path: a declaration when a known type name or the classic
	// "A b", "A* b", "A& b", "ns::A b" shapes follow.
	// Walk lookahead over name ( :: name )* ( < ... > )? then pointers.
	j := 1
	for p.at(j).Kind == cclex.KindColonColon && p.at(j+1).Kind == cclex.KindIdent {
		j += 2
	}
	// template args
	if p.at(j).Kind == cclex.KindLess {
		depth := 0
		k := j
		for k < j+64 {
			switch p.at(k).Kind {
			case cclex.KindLess:
				depth++
			case cclex.KindGreater:
				depth--
			case cclex.KindShr:
				depth -= 2
			case cclex.KindSemi, cclex.KindEOF, cclex.KindLBrace:
				depth = -99
			}
			k++
			if depth <= 0 {
				break
			}
		}
		if depth == 0 {
			j = k
		} else if depth < -1 {
			return false
		}
	}
	// pointers/refs
	for p.at(j).Kind == cclex.KindStar || p.at(j).Kind == cclex.KindAmp {
		j++
		for p.at(j).Is("const") {
			j++
		}
	}
	nt := p.at(j)
	if nt.Kind == cclex.KindIdent {
		// "A b" is a decl if followed by = ; , [ ( or end-ish token.
		after := p.at(j + 1)
		switch after.Kind {
		case cclex.KindAssign, cclex.KindSemi, cclex.KindComma,
			cclex.KindLBracket, cclex.KindLBrace:
			return true
		case cclex.KindLParen:
			// Could be a constructor-style init "A b(1);" — treat as decl
			// only when the first ident is a known type.
			return p.isTypeName(t.Text)
		}
		return false
	}
	return false
}

func (p *parser) parseDeclStmt() ccast.Stmt {
	start := p.pos()
	quals := p.parseQualifiers()
	ty := p.parseType()
	ty.Quals |= quals
	ds := alloc(p, &p.a.DeclStmt)
	vd := alloc(p, &p.a.VarDecl)
	mark := len(p.scratchDtor)
	for {
		dstart := p.pos()
		dty := ty
		if len(p.scratchDtor) > mark {
			dty = alloc(p, &p.a.Type)
			dty.Name, dty.Quals = ty.Name, ty.Quals
			for p.accept(cclex.KindStar) {
				dty.PtrDepth++
			}
		}
		if p.tok.Kind != cclex.KindIdent {
			p.errorf("expected local declarator, found %s", p.tok)
			break
		}
		d := alloc(p, &p.a.Declarator)
		d.Name, d.Type = p.tok.Text, dty
		p.next()
		applyDeclaratorSuffix(dty, p)
		switch {
		case p.accept(cclex.KindAssign):
			d.Init = p.parseInitializer()
		case p.tok.Kind == cclex.KindLBrace:
			d.Init = p.parseInitializer()
		case p.tok.Kind == cclex.KindLParen:
			// Constructor-style initialization "T x(a, b);".
			p.next()
			il := alloc(p, &p.a.InitList)
			emark := len(p.scratchExpr)
			for p.tok.Kind != cclex.KindRParen && p.tok.Kind != cclex.KindEOF {
				p.scratchExpr = append(p.scratchExpr, p.parseAssignExpr())
				if !p.accept(cclex.KindComma) {
					break
				}
			}
			il.Elems = p.carveExprs(emark)
			p.expect(cclex.KindRParen)
			d.Init = il
		}
		d.SetSpan(p.span(dstart))
		p.scratchDtor = append(p.scratchDtor, d)
		if !p.accept(cclex.KindComma) {
			break
		}
	}
	p.expect(cclex.KindSemi)
	vd.Names = p.carveDtors(mark)
	p.setSpan(vd, start)
	ds.Decl = vd
	p.setSpan(ds, start)
	return ds
}

func (p *parser) parseExprStmt() ccast.Stmt {
	start := p.pos()
	x := p.parseExpr()
	p.expect(cclex.KindSemi)
	s := alloc(p, &p.a.ExprStmt)
	s.X = x
	p.setSpan(s, start)
	return s
}

func (p *parser) parseIf() ccast.Stmt {
	start := p.pos()
	p.next() // if
	p.expect(cclex.KindLParen)
	cond := p.parseExpr()
	p.expect(cclex.KindRParen)
	s := alloc(p, &p.a.If)
	s.Cond = cond
	s.Then = p.parseStmt()
	if p.acceptKeyword("else") {
		s.Else = p.parseStmt()
	}
	p.setSpan(s, start)
	return s
}

func (p *parser) parseWhile() ccast.Stmt {
	start := p.pos()
	p.next()
	p.expect(cclex.KindLParen)
	cond := p.parseExpr()
	p.expect(cclex.KindRParen)
	s := alloc(p, &p.a.While)
	s.Cond = cond
	s.Body = p.parseStmt()
	p.setSpan(s, start)
	return s
}

func (p *parser) parseDoWhile() ccast.Stmt {
	start := p.pos()
	p.next()
	s := alloc(p, &p.a.DoWhile)
	s.Body = p.parseStmt()
	if !p.acceptKeyword("while") {
		p.errorf("expected 'while' after do body")
	}
	p.expect(cclex.KindLParen)
	s.Cond = p.parseExpr()
	p.expect(cclex.KindRParen)
	p.expect(cclex.KindSemi)
	p.setSpan(s, start)
	return s
}

func (p *parser) parseFor() ccast.Stmt {
	start := p.pos()
	p.next()
	p.expect(cclex.KindLParen)
	s := alloc(p, &p.a.For)
	if !p.accept(cclex.KindSemi) {
		if p.startsDecl() {
			s.Init = p.parseDeclStmt() // consumes ';'
		} else {
			istart := p.pos()
			x := p.parseExpr()
			es := alloc(p, &p.a.ExprStmt)
			es.X = x
			p.setSpan(es, istart)
			s.Init = es
			p.expect(cclex.KindSemi)
		}
	}
	if p.tok.Kind != cclex.KindSemi {
		s.Cond = p.parseExpr()
	}
	p.expect(cclex.KindSemi)
	if p.tok.Kind != cclex.KindRParen {
		s.Post = p.parseExpr()
	}
	p.expect(cclex.KindRParen)
	s.Body = p.parseStmt()
	p.setSpan(s, start)
	return s
}

func (p *parser) parseSwitch() ccast.Stmt {
	start := p.pos()
	p.next()
	p.expect(cclex.KindLParen)
	s := alloc(p, &p.a.Switch)
	s.Tag = p.parseExpr()
	p.expect(cclex.KindRParen)
	p.expect(cclex.KindLBrace)
	casesMark := len(p.scratchCase)
	var cur *ccast.CaseClause
	valsMark, bodyMark := 0, 0
	closeCur := func() {
		if cur != nil {
			cur.Body = p.carveStmts(bodyMark)
			cur.Values = p.carveExprs(valsMark)
			cur = nil
		}
	}
	for p.tok.Kind != cclex.KindRBrace && p.tok.Kind != cclex.KindEOF {
		switch {
		case p.tok.Is("case"):
			cstart := p.pos()
			p.next()
			v := p.parseExpr()
			p.expect(cclex.KindColon)
			if cur != nil && len(p.scratchStmt) == bodyMark {
				// fallthrough label stacking: case 1: case 2: body
				p.scratchExpr = append(p.scratchExpr, v)
			} else {
				closeCur()
				cur = alloc(p, &p.a.CaseClause)
				valsMark = len(p.scratchExpr)
				bodyMark = len(p.scratchStmt)
				p.scratchExpr = append(p.scratchExpr, v)
				cur.SetSpan(p.span(cstart))
				p.scratchCase = append(p.scratchCase, cur)
			}
		case p.tok.Is("default"):
			cstart := p.pos()
			p.next()
			p.expect(cclex.KindColon)
			closeCur()
			cur = alloc(p, &p.a.CaseClause)
			valsMark = len(p.scratchExpr)
			bodyMark = len(p.scratchStmt)
			cur.SetSpan(p.span(cstart))
			p.scratchCase = append(p.scratchCase, cur)
		default:
			st := p.parseStmt()
			if st != nil {
				if cur == nil {
					cur = alloc(p, &p.a.CaseClause)
					valsMark = len(p.scratchExpr)
					bodyMark = len(p.scratchStmt)
					p.scratchCase = append(p.scratchCase, cur)
				}
				p.scratchStmt = append(p.scratchStmt, st)
			}
		}
	}
	closeCur()
	p.expect(cclex.KindRBrace)
	s.Cases = p.carveCases(casesMark)
	p.setSpan(s, start)
	return s
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() ccast.Expr {
	start := p.pos()
	x := p.parseAssignExpr()
	for p.tok.Kind == cclex.KindComma {
		p.next()
		r := p.parseAssignExpr()
		c := alloc(p, &p.a.Comma)
		c.L, c.R = x, r
		p.setSpan(c, start)
		x = c
	}
	return x
}

var assignOps = map[cclex.Kind]string{
	cclex.KindAssign: "=", cclex.KindPlusEq: "+=", cclex.KindMinusEq: "-=",
	cclex.KindStarEq: "*=", cclex.KindSlashEq: "/=", cclex.KindPercentEq: "%=",
	cclex.KindAmpEq: "&=", cclex.KindPipeEq: "|=", cclex.KindCaretEq: "^=",
	cclex.KindShlEq: "<<=", cclex.KindShrEq: ">>=",
}

func (p *parser) parseAssignExpr() ccast.Expr {
	start := p.pos()
	x := p.parseCondExpr()
	if op, ok := assignOps[p.tok.Kind]; ok {
		p.next()
		r := p.parseAssignExpr()
		a := alloc(p, &p.a.Assign)
		a.Op, a.L, a.R = op, x, r
		p.setSpan(a, start)
		return a
	}
	return x
}

func (p *parser) parseCondExpr() ccast.Expr {
	start := p.pos()
	c := p.parseBinaryExpr(1)
	if p.tok.Kind != cclex.KindQuestion {
		return c
	}
	p.next()
	t := p.parseAssignExpr()
	p.expect(cclex.KindColon)
	f := p.parseAssignExpr()
	e := alloc(p, &p.a.Cond)
	e.C, e.T, e.F = c, t, f
	p.setSpan(e, start)
	return e
}

// binPrec maps operators to precedence (higher binds tighter).
var binPrec = map[cclex.Kind]int{
	cclex.KindOrOr:   1,
	cclex.KindAndAnd: 2,
	cclex.KindPipe:   3,
	cclex.KindCaret:  4,
	cclex.KindAmp:    5,
	cclex.KindEq:     6, cclex.KindNotEq: 6,
	cclex.KindLess: 7, cclex.KindGreater: 7, cclex.KindLessEq: 7, cclex.KindGreaterEq: 7,
	cclex.KindShl: 8, cclex.KindShr: 8,
	cclex.KindPlus: 9, cclex.KindMinus: 9,
	cclex.KindStar: 10, cclex.KindSlash: 10, cclex.KindPercent: 10,
}

func (p *parser) parseBinaryExpr(minPrec int) ccast.Expr {
	start := p.pos()
	x := p.parseUnaryExpr()
	for {
		prec, ok := binPrec[p.tok.Kind]
		if !ok || prec < minPrec {
			return x
		}
		op := p.tok.Text
		p.next()
		r := p.parseBinaryExpr(prec + 1)
		b := alloc(p, &p.a.Binary)
		b.Op, b.L, b.R = op, x, r
		p.setSpan(b, start)
		x = b
	}
}

func (p *parser) parseUnaryExpr() ccast.Expr {
	start := p.pos()
	switch p.tok.Kind {
	case cclex.KindPlus, cclex.KindMinus, cclex.KindNot, cclex.KindTilde,
		cclex.KindStar, cclex.KindAmp:
		op := p.tok.Text
		p.next()
		x := p.parseUnaryExpr()
		u := alloc(p, &p.a.Unary)
		u.Op, u.X = op, x
		p.setSpan(u, start)
		return u
	case cclex.KindPlusPlus, cclex.KindMinusMinus:
		op := p.tok.Text
		p.next()
		x := p.parseUnaryExpr()
		u := alloc(p, &p.a.Unary)
		u.Op, u.X = op, x
		p.setSpan(u, start)
		return u
	case cclex.KindKeyword:
		switch p.tok.Text {
		case "sizeof":
			p.next()
			se := alloc(p, &p.a.Sizeof)
			if p.tok.Kind == cclex.KindLParen && p.startsTypeInParens() {
				p.next()
				se.Type = p.parseType()
				p.expect(cclex.KindRParen)
			} else {
				se.X = p.parseUnaryExpr()
			}
			p.setSpan(se, start)
			return se
		case "new":
			p.next()
			ne := alloc(p, &p.a.New)
			ne.Type = p.parseType()
			if p.accept(cclex.KindLBracket) {
				ne.Count = p.parseExpr()
				p.expect(cclex.KindRBracket)
			} else if p.accept(cclex.KindLParen) {
				mark := len(p.scratchExpr)
				for p.tok.Kind != cclex.KindRParen && p.tok.Kind != cclex.KindEOF {
					p.scratchExpr = append(p.scratchExpr, p.parseAssignExpr())
					if !p.accept(cclex.KindComma) {
						break
					}
				}
				ne.Args = p.carveExprs(mark)
				p.expect(cclex.KindRParen)
			}
			p.setSpan(ne, start)
			return ne
		case "delete":
			p.next()
			de := alloc(p, &p.a.Delete)
			if p.accept(cclex.KindLBracket) {
				p.expect(cclex.KindRBracket)
				de.Array = true
			}
			de.X = p.parseUnaryExpr()
			p.setSpan(de, start)
			return de
		case "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast":
			style := map[string]ccast.CastStyle{
				"static_cast":      ccast.CastStatic,
				"dynamic_cast":     ccast.CastDynamic,
				"const_cast":       ccast.CastConst,
				"reinterpret_cast": ccast.CastReinterpret,
			}[p.tok.Text]
			p.next()
			p.expect(cclex.KindLess)
			ty := p.parseType()
			// close '>': tolerate '>>' from nested templates
			if p.tok.Kind == cclex.KindShr {
				p.tok.Kind = cclex.KindGreater
				p.tok.Text = ">"
			}
			p.expect(cclex.KindGreater)
			p.expect(cclex.KindLParen)
			x := p.parseExpr()
			p.expect(cclex.KindRParen)
			c := alloc(p, &p.a.Cast)
			c.Style, c.To, c.X = style, ty, x
			p.setSpan(c, start)
			return c
		}
	}
	return p.parsePostfixExpr()
}

// startsTypeInParens peeks after a '(' to decide cast vs parenthesized expr.
func (p *parser) startsTypeInParens() bool {
	t := p.peek(0)
	if t.Kind == cclex.KindKeyword {
		switch t.Text {
		case "const", "volatile", "unsigned", "signed", "struct", "union",
			"enum", "typename":
			return true
		}
		return typeKeywords[t.Text]
	}
	if t.Kind != cclex.KindIdent || !p.isTypeName(t.Text) {
		return false
	}
	// Known type name: cast if followed by ')' or '*'s then ')'.
	i := 1
	for p.peek(i).Kind == cclex.KindColonColon {
		i += 2
	}
	for p.peek(i).Kind == cclex.KindStar || p.peek(i).Is("const") {
		i++
	}
	return p.peek(i).Kind == cclex.KindRParen
}

func (p *parser) parsePostfixExpr() ccast.Expr {
	start := p.pos()
	x := p.parsePrimaryExpr()
	for {
		switch p.tok.Kind {
		case cclex.KindLParen:
			p.next()
			c := alloc(p, &p.a.Call)
			c.Fun = x
			mark := len(p.scratchExpr)
			for p.tok.Kind != cclex.KindRParen && p.tok.Kind != cclex.KindEOF {
				p.scratchExpr = append(p.scratchExpr, p.parseAssignExpr())
				if !p.accept(cclex.KindComma) {
					break
				}
			}
			c.Args = p.carveExprs(mark)
			p.expect(cclex.KindRParen)
			p.setSpan(c, start)
			x = c
		case cclex.KindKernelLaunch:
			p.next()
			kl := alloc(p, &p.a.Kernel)
			kl.Fun = x
			cmark := len(p.scratchExpr)
			for p.tok.Kind != cclex.KindKernelLaunchEnd && p.tok.Kind != cclex.KindEOF {
				p.scratchExpr = append(p.scratchExpr, p.parseAssignExpr())
				if !p.accept(cclex.KindComma) {
					break
				}
			}
			kl.Config = p.carveExprs(cmark)
			p.expect(cclex.KindKernelLaunchEnd)
			p.expect(cclex.KindLParen)
			amark := len(p.scratchExpr)
			for p.tok.Kind != cclex.KindRParen && p.tok.Kind != cclex.KindEOF {
				p.scratchExpr = append(p.scratchExpr, p.parseAssignExpr())
				if !p.accept(cclex.KindComma) {
					break
				}
			}
			kl.Args = p.carveExprs(amark)
			p.expect(cclex.KindRParen)
			p.setSpan(kl, start)
			x = kl
		case cclex.KindLBracket:
			p.next()
			i := p.parseExpr()
			p.expect(cclex.KindRBracket)
			ix := alloc(p, &p.a.Index)
			ix.X, ix.I = x, i
			p.setSpan(ix, start)
			x = ix
		case cclex.KindDot, cclex.KindArrow:
			arrow := p.tok.Kind == cclex.KindArrow
			p.next()
			name := ""
			if p.tok.Kind == cclex.KindIdent {
				name = p.tok.Text
				p.next()
			} else {
				p.errorf("expected member name, found %s", p.tok)
			}
			m := alloc(p, &p.a.Member)
			m.X, m.Name, m.Arrow = x, name, arrow
			p.setSpan(m, start)
			x = m
		case cclex.KindPlusPlus, cclex.KindMinusMinus:
			op := p.tok.Text
			p.next()
			pf := alloc(p, &p.a.Postfix)
			pf.Op, pf.X = op, x
			p.setSpan(pf, start)
			x = pf
		default:
			return x
		}
	}
}

func (p *parser) parsePrimaryExpr() ccast.Expr {
	start := p.pos()
	switch p.tok.Kind {
	case cclex.KindIntLit:
		text := p.tok.Text
		p.next()
		e := alloc(p, &p.a.IntLit)
		e.Text, e.Value = text, parseIntText(text)
		p.setSpan(e, start)
		return e
	case cclex.KindFloatLit:
		text := p.tok.Text
		p.next()
		v, _ := strconv.ParseFloat(strings.TrimRight(text, "fFlL"), 64)
		e := alloc(p, &p.a.FloatLit)
		e.Text, e.Value = text, v
		p.setSpan(e, start)
		return e
	case cclex.KindStringLit:
		text := p.tok.Text
		p.next()
		// Adjacent string literal concatenation.
		for p.tok.Kind == cclex.KindStringLit {
			text += p.tok.Text
			p.next()
		}
		e := alloc(p, &p.a.StringLit)
		e.Text = text
		p.setSpan(e, start)
		return e
	case cclex.KindCharLit:
		text := p.tok.Text
		p.next()
		e := alloc(p, &p.a.CharLit)
		e.Text, e.Value = text, charValue(text)
		p.setSpan(e, start)
		return e
	case cclex.KindLParen:
		// Cast or parenthesized expression.
		if p.startsTypeInParens() {
			p.next()
			ty := p.parseType()
			p.expect(cclex.KindRParen)
			x := p.parseUnaryExpr()
			c := alloc(p, &p.a.Cast)
			c.Style, c.To, c.X = ccast.CastCStyle, ty, x
			p.setSpan(c, start)
			return c
		}
		p.next()
		x := p.parseExpr()
		p.expect(cclex.KindRParen)
		pe := alloc(p, &p.a.Paren)
		pe.X = x
		p.setSpan(pe, start)
		return pe
	case cclex.KindKeyword:
		switch p.tok.Text {
		case "true", "false":
			v := p.tok.Text == "true"
			p.next()
			e := alloc(p, &p.a.BoolLit)
			e.Value = v
			p.setSpan(e, start)
			return e
		case "nullptr":
			p.next()
			e := alloc(p, &p.a.BoolLit)
			e.IsNull = true
			p.setSpan(e, start)
			return e
		case "this":
			p.next()
			e := alloc(p, &p.a.Ident)
			e.Name = "this"
			p.setSpan(e, start)
			return e
		}
		// Functional cast on a type keyword: float(x), int(x).
		if typeKeywords[p.tok.Text] && p.peek(0).Kind == cclex.KindLParen {
			tyName := p.tok.Text
			p.next()
			p.next() // (
			x := p.parseExpr()
			p.expect(cclex.KindRParen)
			to := alloc(p, &p.a.Type)
			to.Name = tyName
			c := alloc(p, &p.a.Cast)
			c.Style, c.To, c.X = ccast.CastFunctional, to, x
			p.setSpan(c, start)
			return c
		}
		p.errorf("unexpected keyword %q in expression", p.tok.Text)
		p.panicking = true
		p.next()
		e := alloc(p, &p.a.Ident)
		e.Name = "<error>"
		p.setSpan(e, start)
		return e
	case cclex.KindIdent:
		name := p.parseQualifiedName()
		e := alloc(p, &p.a.Ident)
		e.Name = name
		p.setSpan(e, start)
		return e
	case cclex.KindColonColon:
		p.next()
		name := "::" + p.parseQualifiedName()
		e := alloc(p, &p.a.Ident)
		e.Name = name
		p.setSpan(e, start)
		return e
	default:
		p.errorf("unexpected token %s in expression", p.tok)
		p.panicking = true
		p.next()
		e := alloc(p, &p.a.Ident)
		e.Name = "<error>"
		p.setSpan(e, start)
		return e
	}
}

func parseIntText(text string) int64 {
	t := strings.TrimRight(text, "uUlL")
	var v int64
	var err error
	if strings.HasPrefix(t, "0x") || strings.HasPrefix(t, "0X") {
		var uv uint64
		uv, err = strconv.ParseUint(t[2:], 16, 64)
		v = int64(uv)
	} else if len(t) > 1 && t[0] == '0' {
		v, err = strconv.ParseInt(t[1:], 8, 64)
	} else {
		v, err = strconv.ParseInt(t, 10, 64)
	}
	if err != nil {
		return 0
	}
	return v
}

func charValue(text string) int64 {
	s := strings.TrimSuffix(strings.TrimPrefix(text, "'"), "'")
	if s == "" {
		return 0
	}
	if s[0] == '\\' && len(s) >= 2 {
		switch s[1] {
		case 'n':
			return '\n'
		case 't':
			return '\t'
		case 'r':
			return '\r'
		case '0':
			return 0
		case '\\':
			return '\\'
		case '\'':
			return '\''
		default:
			return int64(s[1])
		}
	}
	return int64(s[0])
}

// ParseAll parses every file in the set, returning units keyed by path.
// Files parse concurrently on a worker pool sized to Options.Workers
// (default GOMAXPROCS); units and errors are merged in file order, so the
// output is deterministic and identical to a sequential parse.
//
// Unless the caller supplies one, ParseAll creates one shared identifier
// table for the whole run. It gives each worker one arena of its own,
// reused across the files that worker parses and never reset, so a
// batch parse performs a handful of slab allocations per file. Callers
// cannot supply an arena: one shared across workers would race, as
// ccast.Slab is not safe for concurrent use. The resulting units
// jointly own the arena memory, and nothing else keeps it: it is
// released when the last unit of the batch becomes unreachable, so the
// batch has one lifetime. It serves callers that keep every AST at
// once (the reference engines and the figure experiments);
// core.Assessor's cold load keeps none and parses one file at a time
// into a worker arena it resets (ParseInto), and deltas parse single
// files with private arenas that die one unit at a time.
func ParseAll(fs *srcfile.FileSet, opts Options) (map[string]*ccast.TranslationUnit, []*Error) {
	files := fs.Files()
	workers := opts.Workers
	if workers <= 0 {
		workers = par.Workers(len(files))
	}
	if workers > len(files) {
		workers = len(files)
	}

	if !opts.Reference && opts.Intern == nil {
		opts.Intern = cclex.NewInterner()
	}
	// Per-worker arenas rather than a sync.Pool: a pool's victim cache
	// would keep each arena's current chunks, and the nodes in them,
	// alive through one more collection after the batch is dropped.
	arenas := make([]*ccast.Arena, max(workers, 1))
	for w := range arenas {
		arenas[w] = &ccast.Arena{}
	}

	type result struct {
		tu   *ccast.TranslationUnit
		errs []*Error
	}
	results := make([]result, len(files))
	par.ForWorkers(workers, len(files), func(w, i int) {
		tu, es := ParseInto(files[i], opts, arenas[w])
		results[i] = result{tu, es}
	})

	units := make(map[string]*ccast.TranslationUnit, len(files))
	nerrs := 0
	for i := range results {
		nerrs += len(results[i].errs)
	}
	var errs []*Error
	if nerrs > 0 {
		errs = make([]*Error, 0, nerrs)
	}
	for i, f := range files {
		units[f.Path] = results[i].tu
		errs = append(errs, results[i].errs...)
	}
	return units, errs
}
