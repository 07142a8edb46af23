// Package rules is a golden stand-in for a package with registered
// long-lived types (Sharded, Finding): arena nodes must never be
// stored into them, by declaration or by flow.
package rules

import "repro/internal/lint/analyzers/testdata/src/arenaescape/ccast"

// Sharded is registered long-lived: every arena-capable field is a
// declaration violation.
type Sharded struct {
	decls   map[string]*ccast.FuncDecl // want `long-lived type Sharded declares a field that can hold ccast arena nodes`
	nodes   []ccast.Node               // want `long-lived type Sharded declares a field that can hold ccast arena nodes`
	arena   *ccast.Arena               // want `long-lived type Sharded declares a field that can hold ccast arena nodes`
	escape  interface{}
	names   []string
	span    ccast.Span
	counter int
}

// Finding is registered long-lived; facts-only fields are fine.
type Finding struct {
	Rule string
	Path string
	Line int
}

// scratch is NOT registered: a short-lived traversal holder may carry
// nodes freely.
type scratch struct {
	cur   ccast.Node
	stack []*ccast.FuncDecl
}

func storeNode(inc *Sharded, n *ccast.FuncDecl) {
	inc.escape = n     // want `storing a ccast arena value into long-lived Sharded.escape`
	inc.decls["f"] = n // want `storing a ccast arena value into long-lived Sharded.decls`
	inc.names = append(inc.names, n.Name)
	inc.counter++
	inc.span = ccast.Span{Off: 1, Len: 2}
}

func buildLiteral(n *ccast.FuncDecl) *Sharded {
	return &Sharded{
		escape: n, // want `ccast arena value placed into long-lived Sharded literal`
		names:  []string{n.Name},
	}
}

func shortLived(n *ccast.FuncDecl) int {
	s := &scratch{cur: n}
	s.stack = append(s.stack, n)
	return len(s.stack)
}

func factsOnly(n *ccast.FuncDecl) Finding {
	return Finding{Rule: "golden", Path: n.Name, Line: 1}
}

func suppressedEscape(inc *Sharded, n *ccast.FuncDecl) {
	//adlint:ignore arenaescape golden: deliberate escape kept to pin suppression
	inc.escape = n
}
