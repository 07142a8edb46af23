package ccast

// Arena slab-allocates AST nodes and the small slices that link them
// (argument lists, statement lists), replacing per-node heap allocation on
// the cold parse path. One arena serves one translation unit at a time,
// so parse allocation count drops from O(nodes) to O(chunks): a handful
// per file, and none once a reused arena's chunks fit the files it sees.
//
// Lifetime: chunks are ordinary GC-managed slices referenced by the nodes
// carved from them, so an arena needs no explicit free — dropping every
// node of the unit(s) allocated from it releases the memory wholesale.
// A chunk stays live while any node in it is referenced; arenas must
// therefore not be shared between units with independent lifetimes unless
// the residual pinning is acceptable (see DESIGN.md "Arena lifetimes").
// Reset ends one unit's lifetime explicitly: once nothing holds a node
// of the units carved since the last Reset, the arena can take the next
// unit in the same chunks.
//
// The zero Arena is ready to use.
type Arena struct {
	// Node slabs, one per frequently allocated node type.
	Ident      Slab[Ident]
	IntLit     Slab[IntLit]
	FloatLit   Slab[FloatLit]
	StringLit  Slab[StringLit]
	CharLit    Slab[CharLit]
	BoolLit    Slab[BoolLit]
	Unary      Slab[Unary]
	Postfix    Slab[Postfix]
	Binary     Slab[Binary]
	Assign     Slab[Assign]
	Cond       Slab[Cond]
	Call       Slab[Call]
	Kernel     Slab[KernelLaunch]
	Index      Slab[Index]
	Member     Slab[Member]
	Cast       Slab[Cast]
	Sizeof     Slab[SizeofExpr]
	New        Slab[NewExpr]
	Delete     Slab[DeleteExpr]
	Comma      Slab[Comma]
	InitList   Slab[InitList]
	Paren      Slab[Paren]
	Type       Slab[Type]
	Block      Slab[Block]
	ExprStmt   Slab[ExprStmt]
	DeclStmt   Slab[DeclStmt]
	If         Slab[If]
	While      Slab[While]
	DoWhile    Slab[DoWhile]
	For        Slab[For]
	Switch     Slab[Switch]
	CaseClause Slab[CaseClause]
	Break      Slab[Break]
	Continue   Slab[Continue]
	Return     Slab[Return]
	Goto       Slab[Goto]
	Label      Slab[Label]
	Empty      Slab[Empty]
	VarDecl    Slab[VarDecl]
	Declarator Slab[Declarator]
	Param      Slab[Param]
	FuncDecl   Slab[FuncDecl]
	Field      Slab[Field]
	PPDir      Slab[PPDirective]

	// Slice slabs: backing stores for the child lists nodes carry.
	Exprs       Slab[Expr]
	Stmts       Slab[Stmt]
	Decls       Slab[Decl]
	Declarators Slab[*Declarator]
	Params      Slab[*Param]
	Fields      Slab[*Field]
	Funcs       Slab[*FuncDecl]
	Cases       Slab[*CaseClause]
	Comments    Slab[CommentInfo]
}

// Slab is a chunked allocator for values of one type. The zero Slab is
// ready to use. Not safe for concurrent use.
type Slab[T any] struct {
	cur    []T // current chunk; filled left to right
	carved int // values carved into earlier chunks since the last reset
	next   int // capacity of the next chunk
}

const (
	slabFirst = 16
	slabMax   = 1024
)

func (s *Slab[T]) grow(min int) {
	n := s.next
	if n == 0 {
		n = slabFirst
	}
	if n < min {
		n = min
	}
	s.carved += len(s.cur)
	s.next = n * 2
	if s.next > slabMax {
		s.next = slabMax
	}
	s.cur = make([]T, 0, n)
}

// Alloc carves one zero value out of the slab's current chunk.
func Alloc[T any](s *Slab[T]) *T {
	if len(s.cur) == cap(s.cur) {
		s.grow(1)
	}
	s.cur = s.cur[:len(s.cur)+1]
	return &s.cur[len(s.cur)-1]
}

// Carve copies src into slab-backed storage and returns the copy, capped at
// its own length so appends by callers cannot overwrite neighbours. Parsers
// accumulate children in a reusable scratch slice, then Carve the exact
// final length. A nil/empty src returns nil.
func Carve[T any](s *Slab[T], src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if cap(s.cur)-len(s.cur) < n {
		s.grow(n)
	}
	at := len(s.cur)
	s.cur = s.cur[: at+n : cap(s.cur)]
	out := s.cur[at : at+n : at+n]
	copy(out, src)
	return out
}

// reset readies the slab for the next run with one chunk whose carved
// part is zero: the current chunk, zeroed, when it was the only one
// since the last reset; else a fresh chunk as large as everything
// carved, so a run that needed several chunks fits in one next time,
// and the old chunks are left to the collector.
func (s *Slab[T]) reset() {
	if s.carved == 0 {
		clear(s.cur)
		s.cur = s.cur[:0]
		return
	}
	s.cur = make([]T, 0, s.carved+len(s.cur))
	s.carved = 0
}

// Reset makes the arena reusable for the next unit: every slab zeroes
// what it carved since the last Reset and keeps its chunks (a slab that
// needed several keeps one sized for them all). Every node carved
// before the Reset is overwritten by later carves, so the caller must
// hold none of them: it resets only once the unit's outputs, which hold
// facts and never nodes, are built.
func (a *Arena) Reset() {
	a.Ident.reset()
	a.IntLit.reset()
	a.FloatLit.reset()
	a.StringLit.reset()
	a.CharLit.reset()
	a.BoolLit.reset()
	a.Unary.reset()
	a.Postfix.reset()
	a.Binary.reset()
	a.Assign.reset()
	a.Cond.reset()
	a.Call.reset()
	a.Kernel.reset()
	a.Index.reset()
	a.Member.reset()
	a.Cast.reset()
	a.Sizeof.reset()
	a.New.reset()
	a.Delete.reset()
	a.Comma.reset()
	a.InitList.reset()
	a.Paren.reset()
	a.Type.reset()
	a.Block.reset()
	a.ExprStmt.reset()
	a.DeclStmt.reset()
	a.If.reset()
	a.While.reset()
	a.DoWhile.reset()
	a.For.reset()
	a.Switch.reset()
	a.CaseClause.reset()
	a.Break.reset()
	a.Continue.reset()
	a.Return.reset()
	a.Goto.reset()
	a.Label.reset()
	a.Empty.reset()
	a.VarDecl.reset()
	a.Declarator.reset()
	a.Param.reset()
	a.FuncDecl.reset()
	a.Field.reset()
	a.PPDir.reset()
	a.Exprs.reset()
	a.Stmts.reset()
	a.Decls.reset()
	a.Declarators.reset()
	a.Params.reset()
	a.Fields.reset()
	a.Funcs.reset()
	a.Cases.reset()
	a.Comments.reset()
}
