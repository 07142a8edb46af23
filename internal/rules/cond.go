package rules

import (
	"fmt"
	"slices"

	"repro/internal/artifact"
)

// This file implements conditioned findings. Two per-file checks depend
// on another file's fact: a call statement discards a value only while
// the callee resolves to a defined non-void function (DefensiveRule),
// and a local shadows a global only while its name is a file-scope
// variable (ShadowRule). Their handlers emit the finding under a
// condition on the name instead (Emitter.EmitIf). The reference pass
// evaluates it at once; the sharded engine keeps each file's conditions
// beside its findings, so a name whose fact moves flips exactly its
// conditions' findings and no file is walked again.

// CondKind is the predicate a conditioned finding waits on. Each is one
// bit of the index's change feed, so a name whose predicate may have
// moved is always in the feed.
type CondKind uint8

const (
	// NonVoidCallee holds while the name resolves (ByName) to a defined
	// function returning a value (artifact.ReturnChanged).
	NonVoidCallee CondKind = iota
	// GlobalVar holds while the name is a file-scope variable
	// (GlobalNames; artifact.GlobalChanged).
	GlobalVar
)

// CondName is what a conditioned finding waits on: a predicate over one
// name.
type CondName struct {
	Kind CondKind
	Name string
}

// holds evaluates the predicate against the context's cross-file views.
func (cn CondName) holds(ctx *Context) bool {
	if cn.Kind == GlobalVar {
		_, ok := ctx.GlobalNames[cn.Name]
		return ok
	}
	fa := ctx.ByName[cn.Name]
	return fa != nil && !fa.Void
}

// finding renders the finding the condition stands for, at line inside
// fi.
func (cn CondName) finding(fi *FuncInfo, line int) Finding {
	if cn.Kind == GlobalVar {
		return finding(new(ShadowRule).ID(), Warning, fi, line,
			fmt.Sprintf("declaration of %q shadows a global variable", cn.Name),
			refUniqueNames, refNoHiddenFlow)
	}
	return finding(new(DefensiveRule).ID(), Warning, fi, line,
		fmt.Sprintf("return value of %s() ignored", cn.Name), refDefensive)
}

// condAt is one condition a walk emitted, with the index of its
// enclosing function in the unit and its line.
type condAt struct {
	CondName
	fn, line int
}

// Cond is one conditioned finding as the engine stores it: Name is an
// id into a name table (the engine's, or Conditions.Names in persisted
// form), Func the index of the enclosing function in its unit's function
// list, and Line the finding's line.
type Cond struct {
	Name, Func, Line uint32
}

// Conditions is one shard's conditioned findings in persisted form, laid
// out as the engine lays them out: file i of the shard's sorted paths
// holds Conds[Off[i]:Off[i+1]], and each Cond's Name indexes Names.
type Conditions struct {
	Names []CondName
	Conds []Cond
	Off   []int
}

// condTable is the engine's name table: per id, the value its predicate
// had at the previous Update and the number of stored conditions
// carrying it. All conditions of one id are evaluated together, so the
// id's value is each one's. An id whose count reaches zero is freed and
// reused.
type condTable struct {
	ids  map[CondName]uint32
	by   []condEntry
	free []uint32
	// flipped lists the ids whose value the last flip call flipped.
	flipped []uint32
}

type condEntry struct {
	CondName
	truth, flipped bool
	n              int
}

func newCondTable() *condTable {
	return &condTable{ids: make(map[CondName]uint32)}
}

// id returns cn's id, creating it at its predicate's current value when
// no condition carries it. The caller counts its conditions (ref).
func (t *condTable) id(ctx *Context, cn CondName) uint32 {
	if id, ok := t.ids[cn]; ok {
		return id
	}
	e := condEntry{CondName: cn, truth: cn.holds(ctx)}
	var id uint32
	if k := len(t.free); k > 0 {
		id, t.free = t.free[k-1], t.free[:k-1]
		t.by[id] = e
	} else {
		id = uint32(len(t.by))
		t.by = append(t.by, e)
	}
	t.ids[cn] = id
	return id
}

// ref adds d conditions under id, freeing the id when none is left.
func (t *condTable) ref(id uint32, d int) {
	e := &t.by[id]
	if e.n += d; e.n == 0 {
		delete(t.ids, e.CondName)
		*e = condEntry{}
		t.free = append(t.free, id)
	}
}

// flip re-evaluates the predicates the feed's changes can have moved
// (every one when all is set), records their values, and marks the ids
// that flipped until the next call. It returns how many stored
// conditions the re-evaluated ids carry.
func (t *condTable) flip(ctx *Context, changes map[string]artifact.Change, all bool) int {
	for _, id := range t.flipped {
		t.by[id].flipped = false
	}
	t.flipped = t.flipped[:0]
	var ids []uint32
	if all {
		for id := range t.by {
			if t.by[id].n > 0 {
				ids = append(ids, uint32(id))
			}
		}
	}
	for name, what := range changes {
		if id, ok := t.ids[CondName{NonVoidCallee, name}]; ok && what&artifact.ReturnChanged != 0 {
			ids = append(ids, id)
		}
		if id, ok := t.ids[CondName{GlobalVar, name}]; ok && what&artifact.GlobalChanged != 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	n := 0
	for _, id := range ids {
		e := &t.by[id]
		n += e.n
		if h := e.holds(ctx); h != e.truth {
			e.truth, e.flipped = h, true
			t.flipped = append(t.flipped, id)
		}
	}
	return n
}
