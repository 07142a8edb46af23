package rules

import (
	"sort"

	"repro/internal/artifact"
)

// cycleCache is RecursionRule's state inside the sharded engine: the set
// of names on a call cycle and the finding rendered for each, kept across
// deltas and updated from the index change feed instead of re-running
// the corpus-wide SCC.
//
// A name's status can change only if it lies on a cycle through a
// changed node C (a name defined or undefined, or whose champion's
// callee list changed): in the old graph such a name was already on a
// cycle, and in the new graph it is reachable from C. Tarjan from the
// roots C ∪ onCycle therefore visits every name whose status may have
// moved, and computes each visited name's status exactly; every other
// name keeps its status. With no graph change Tarjan does not run at all.
// A finding is rendered from its name's champion, whose line a body edit
// may move without moving any fact, so every update re-renders the
// on-cycle names whose champion is a different record.
type cycleCache struct {
	rule *RecursionRule
	// ok is false until the cache holds the on-cycle set of the current
	// index; the next update then runs the full SCC.
	ok bool
	// found maps every on-cycle name to its finding and the champion it
	// was rendered from.
	found map[string]onCycle
	// seg is found's findings sorted under findingLess.
	seg []Finding
}

// onCycle is one on-cycle name's rendered finding.
type onCycle struct {
	champ *FuncInfo
	f     Finding
}

// seed installs a restored corpus segment rendered from byName's
// champions: every finding of the rule names one on-cycle function (its
// Function field, unqualified, is the name the graph keys on), so the
// on-cycle set is read back without an SCC.
func (cc *cycleCache) seed(corpus []Finding, byName map[string]*FuncInfo) {
	cc.found = make(map[string]onCycle)
	for _, f := range corpus {
		if f.RuleID == cc.rule.ID() {
			name := artifact.Unqualified(f.Function)
			cc.found[name] = onCycle{byName[name], f}
		}
	}
	cc.resort()
	cc.ok = true
}

// update brings the cache to the context's index and reports whether
// its segment changed. changes holds the union of feed entries since
// the previous update; it is ignored when the cache is not ok (fresh
// engine, new index, or feed overrun), which runs the full SCC instead.
func (cc *cycleCache) update(ctx *Context, changes map[string]artifact.Change) bool {
	if !cc.ok {
		cc.found = make(map[string]onCycle)
		for _, f := range cc.rule.Check(ctx) {
			name := artifact.Unqualified(f.Function)
			cc.found[name] = onCycle{ctx.ByName[name], f}
		}
		cc.resort()
		cc.ok = true
		return true
	}
	var roots []string
	for name, what := range changes {
		if what&artifact.GraphChanged != 0 {
			roots = append(roots, name)
		}
	}
	moved := false
	if len(roots) > 0 {
		for name := range cc.found {
			roots = append(roots, name)
		}
		sort.Strings(roots)
		status := cycleStatus(ctx.ByName, roots)
		// Every previously on-cycle name is a root: it was visited (and
		// its status recomputed) unless it is no longer defined.
		for name := range cc.found {
			if !status[name] {
				delete(cc.found, name)
				moved = true
			}
		}
		for name, cyclic := range status {
			if _, was := cc.found[name]; cyclic && !was {
				cc.found[name] = onCycle{} // rendered below
			}
		}
	}
	for name, oc := range cc.found {
		if fa := ctx.ByName[name]; fa != oc.champ {
			cc.found[name] = onCycle{fa, cc.rule.finding(fa)}
			moved = true
		}
	}
	if moved {
		cc.resort()
	}
	return moved
}

// resort rebuilds the sorted segment from found.
func (cc *cycleCache) resort() {
	cc.seg = make([]Finding, 0, len(cc.found))
	for _, oc := range cc.found {
		cc.seg = append(cc.seg, oc.f)
	}
	sortFindings(cc.seg)
}
