package rules

import (
	"slices"
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
//
// A finding is rendered from its name's champion (ByName), which a body
// edit may replace without moving any fact, so a line can move with no
// feed entry. A champion changes only when its file is replaced or
// removed, or when a changed file inserts an earlier definition of the
// name, so an update re-checks the champions of exactly those on-cycle
// names: the ones whose champion lives in a touched file, and the ones a
// touched file now defines. A finding's File is its champion's path (an
// equal re-render keeps both), so the first are the Function names of
// the segment's run for that file. A re-rendered finding equal to the
// cached one only swaps the champion pointer.
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

// update brings the cache to the context's index and returns the
// findings that left the segment and those that entered it. changes
// holds the union of feed entries since the previous update, and touched
// the paths whose unit was replaced, re-checked or removed since then;
// both are ignored when the cache is not ok (fresh engine, new index, or
// feed overrun), which runs the full SCC instead.
func (cc *cycleCache) update(ctx *Context, changes map[string]artifact.Change, touched []string) (left, came []Finding) {
	if !cc.ok {
		left = cc.seg
		cc.found = make(map[string]onCycle)
		for _, f := range cc.rule.Check(ctx) {
			name := artifact.Unqualified(f.Function)
			cc.found[name] = onCycle{ctx.ByName[name], f}
		}
		cc.resort()
		cc.ok = true
		return left, cc.seg
	}
	var roots []string
	for name, what := range changes {
		if what&artifact.GraphChanged != 0 {
			roots = append(roots, name)
		}
	}
	// check collects the names whose champion may have moved: the
	// graph roots still on a cycle, the names that joined one, and the
	// on-cycle names a touched file defined or defines.
	var check []string
	var joined map[string]bool
	if len(roots) > 0 {
		check = append(check, roots...)
		for name := range cc.found {
			roots = append(roots, name)
		}
		sort.Strings(roots)
		status := cycleStatus(ctx.ByName, roots)
		// Every previously on-cycle name is a root: it was visited (and
		// its status recomputed) unless it is no longer defined.
		var off []string
		for name := range cc.found {
			if !status[name] {
				off = append(off, name)
			}
		}
		sort.Strings(off)
		for _, name := range off {
			left = append(left, cc.found[name].f)
			delete(cc.found, name)
		}
		joined = make(map[string]bool)
		for name, cyclic := range status {
			if _, was := cc.found[name]; cyclic && !was {
				joined[name] = true
				check = append(check, name)
			}
		}
	}
	for _, p := range touched {
		// seg is as of the previous update; a name it lists that has
		// since left the cycle fails the on-cycle test below.
		i := sort.Search(len(cc.seg), func(i int) bool { return cc.seg[i].File >= p })
		for ; i < len(cc.seg) && cc.seg[i].File == p; i++ {
			check = append(check, artifact.Unqualified(cc.seg[i].Function))
		}
		for _, fa := range ctx.Index.UnitFuncs(p) {
			check = append(check, artifact.Unqualified(fa.Name))
		}
	}
	sort.Strings(check)
	for _, name := range slices.Compact(check) {
		oc, was := cc.found[name]
		fa := ctx.ByName[name]
		if was && fa == oc.champ {
			continue
		}
		if !was && !joined[name] {
			continue // not on a cycle
		}
		f := cc.rule.finding(fa)
		if was && sameFinding(&f, &oc.f) {
			cc.found[name] = onCycle{fa, oc.f}
			continue
		}
		if was {
			left = append(left, oc.f)
		}
		came = append(came, f)
		cc.found[name] = onCycle{fa, f}
	}
	if len(left) > 0 || len(came) > 0 {
		cc.resort()
	}
	return left, came
}

// sameFinding reports whether two findings are equal field by field.
func sameFinding(a, b *Finding) bool {
	return a.RuleID == b.RuleID && a.Severity == b.Severity && a.File == b.File &&
		a.Module == b.Module && a.Line == b.Line && a.Msg == b.Msg &&
		a.Function == b.Function && slices.Equal(a.Refs, b.Refs)
}

// resort rebuilds the sorted segment from found.
func (cc *cycleCache) resort() {
	cc.seg = make([]Finding, 0, len(cc.found))
	for _, oc := range cc.found {
		cc.seg = append(cc.seg, oc.f)
	}
	sortFindings(cc.seg)
}
