package artifact

import (
	"slices"
	"sort"
)

// This file implements the index's change feed: for every name whose
// definition or declaration list an Apply edited, which rule-visible
// fact of the name actually moved. Warm consumers (the sharded rule engine, the
// architectural metrics cache) remember the index generation they last
// saw and read the names changed since, so a delta that renames one
// function invalidates the readers of that name instead of every cache
// in the corpus — the fine-grained dependency and early-cutoff idea of
// "Build Systems à la Carte" (Mokhov, Mitchell, Peyton Jones, ICFP 2018).
//
// Only Apply records. Build and BuildFromRecords record nothing: a new
// index is a new corpus to its consumers.

// Change is the set of rule-visible facts that moved for one name.
type Change uint8

// Change bits.
const (
	// ReturnChanged: whether the name resolves (ByName) to a non-void
	// definition — everything DefensiveRule's ignored-return check
	// reads about a callee.
	ReturnChanged Change = 1 << iota
	// GlobalChanged: whether the name is a file-scope variable
	// (GlobalNames membership) — everything ShadowRule reads.
	GlobalChanged
	// GraphChanged: the name became defined or undefined in ByName, or
	// its champion's callee list changed — the edges of the recursion
	// rule's call graph.
	GraphChanged
	// ModuleChanged: the module of the name's last definition moved
	// (FuncModule, the architectural call resolution).
	ModuleChanged
)

// NameChange is one feed entry.
type NameChange struct {
	// Gen is the index generation of the Apply that recorded it.
	Gen  uint64
	Name string
	What Change
}

// FeedRetention bounds the entries the feed keeps: once it holds more,
// whole generations older than the newest are dropped, oldest first. A
// consumer that falls behind a dropped generation gets ok=false from
// ChangesSince and must treat every cross-file fact as changed. A body
// edit records nothing (it moves no fact), so only name-changing deltas
// count against the bound.
const FeedRetention = 4096

// ChangesSince returns the name changes recorded by every Apply after
// index generation gen, oldest first (a name may appear once per
// Apply). ok is false when the feed has dropped entries newer than
// gen. The slice aliases the feed and must not be mutated; it is valid
// until the next Apply.
func (ix *Index) ChangesSince(gen uint64) (changes []NameChange, ok bool) {
	if gen < ix.feedFloor {
		return nil, false
	}
	i := sort.Search(len(ix.feed), func(i int) bool { return ix.feed[i].Gen > gen })
	return ix.feed[i:], true
}

// recordChanges appends one Apply's changes, sorted by name, then drops
// whole generations older than the current one while the feed holds
// more than FeedRetention entries; feedFloor is the newest dropped
// generation. The current generation is never dropped, so a consumer
// one Apply behind can always read it, however many names it moved.
func (ix *Index) recordChanges(changes map[string]Change) {
	names := make([]string, 0, len(changes))
	for name, what := range changes {
		if what != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ix.feed = append(ix.feed, NameChange{Gen: ix.gen, Name: name, What: changes[name]})
	}
	cut := 0
	for len(ix.feed)-cut > FeedRetention && ix.feed[cut].Gen < ix.gen {
		ix.feedFloor = ix.feed[cut].Gen
		for cut < len(ix.feed) && ix.feed[cut].Gen == ix.feedFloor {
			cut++
		}
	}
	if cut > 0 {
		n := copy(ix.feed, ix.feed[cut:])
		ix.feed = ix.feed[:n]
	}
}

// resolution is what the feed compares for one name: its ByName
// champion, the module of its last definition (FuncModule), and whether
// it is a file-scope variable (GlobalNames membership).
type resolution struct {
	first  *Func
	module string
	global bool
}

// resolve reads name's current resolution.
func (ix *Index) resolve(name string) resolution {
	r := resolution{first: ix.ByName[name]}
	r.module, _ = ix.FuncModule(name)
	_, r.global = ix.GlobalNames[name]
	return r
}

// changes compares every touched name's resolution after an Apply with
// the one noted before its first edit.
func (t touched) changes(ix *Index) map[string]Change {
	out := make(map[string]Change, len(t))
	for name, was := range t {
		out[name] = was.change(ix.resolve(name))
	}
	return out
}

// change classifies the move from was to now. A new champion with the
// same callees and voidness — what a body edit gives every function of
// the edited file — moves nothing.
func (was resolution) change(now resolution) Change {
	var c Change
	if was.first != now.first {
		if was.first == nil || now.first == nil || !slices.Equal(was.first.Callees, now.first.Callees) {
			c |= GraphChanged
		}
		if nonVoid(was.first) != nonVoid(now.first) {
			c |= ReturnChanged
		}
	}
	if was.module != now.module {
		c |= ModuleChanged
	}
	if was.global != now.global {
		c |= GlobalChanged
	}
	return c
}

// nonVoid reports whether fa is a definition returning a value.
func nonVoid(fa *Func) bool {
	return fa != nil && !fa.Void
}
