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
// Each on-cycle name carries the id of its strongly connected
// component, drawn from a counter, or 0 while it is unknown: the names
// seeded from a snapshot or found by a full run. A graph-changing update
// roots Tarjan at the changed nodes C (names defined or undefined, or
// whose champion's callee list changed), at every member of a component
// that holds one of them, and at every name whose component is unknown.
// That is exact, for three reasons:
//
//   - A component with no changed node keeps all its edges: edges come
//     from champions' callee lists and from definedness, and any change
//     to either is a GraphChanged entry. So it stays strongly connected.
//   - Any new cycle passes through a changed node, so Tarjan reaches it
//     from the roots, along with every old component it merged.
//   - Tarjan's components over the subgraph it reaches are exact.
//
// Visited names take their new status and id. An on-cycle name Tarjan
// did not visit lies in an unchanged component that merged with none,
// so it keeps both; a root it did not visit is undefined, so it leaves
// the set. With no graph change Tarjan does not run at all. The members
// index (component id to names) finds a component's members without a
// pass over the whole set; an update drops the list of every component
// a visited or leaving name was in.
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
	// found maps every on-cycle name to its finding, the champion it
	// was rendered from, and its component; members maps each known
	// component to its names. Components are either all unknown (after a
	// seed or a full run) or all known (after a graph-changing update).
	found   map[string]onCycle
	members map[int][]string
	known   bool
	// seg is found's findings sorted under findingLess.
	seg []Finding
	// comps is the last component id drawn.
	comps int
}

// onCycle is one on-cycle name's rendered finding and component.
type onCycle struct {
	champ *FuncInfo
	f     Finding
	// comp is the id of the name's strongly connected component, shared
	// exactly by the names of that component, or 0 while unknown.
	comp int
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
			cc.found[name] = onCycle{champ: byName[name], f: f}
		}
	}
	cc.members, cc.known = make(map[int][]string), false
	cc.resort()
	cc.ok = true
}

// graphChanged lists, sorted, the names whose call-graph node changed.
func graphChanged(changes map[string]artifact.Change) []string {
	var changed []string
	for name, what := range changes {
		if what&artifact.GraphChanged != 0 {
			changed = append(changed, name)
		}
	}
	sort.Strings(changed)
	return changed
}

// roots returns, sorted, the names an update over the changed nodes
// roots Tarjan at: the changed names, the members of every component
// holding one, and every on-cycle name while components are unknown.
func (cc *cycleCache) roots(changed []string) []string {
	roots := slices.Clone(changed)
	if !cc.known {
		for name := range cc.found {
			roots = append(roots, name)
		}
	}
	for _, name := range changed {
		if oc, was := cc.found[name]; was {
			roots = append(roots, cc.members[oc.comp]...)
		}
	}
	sort.Strings(roots)
	return slices.Compact(roots)
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
			cc.found[name] = onCycle{champ: ctx.ByName[name], f: f}
		}
		cc.members, cc.known = make(map[int][]string), false
		cc.resort()
		cc.ok = true
		return left, cc.seg
	}
	changed := graphChanged(changes)
	// check collects the names whose champion may have moved: the
	// changed names still on a cycle, the names that joined one, and the
	// on-cycle names a touched file defined or defines. joined maps each
	// name that joined a cycle to its component.
	check := slices.Clone(changed)
	var joined map[string]int
	if len(changed) > 0 {
		roots := cc.roots(changed)
		cc.known = true
		comp, n := cycleStatus(ctx.ByName, roots)
		base := cc.comps
		cc.comps += n
		var off []string
		for _, name := range roots {
			if _, visited := comp[name]; !visited {
				off = append(off, name) // undefined
			}
		}
		joined = make(map[string]int)
		for name, c := range comp {
			oc, was := cc.found[name]
			if was {
				// Tarjan visited the name's whole old component (or the
				// rest left the set), so its members take new ones.
				delete(cc.members, oc.comp)
			}
			switch {
			case c == 0:
				off = append(off, name)
			case was:
				oc.comp = base + c
				cc.found[name] = oc
				cc.members[base+c] = append(cc.members[base+c], name)
			default:
				joined[name] = base + c
				cc.members[base+c] = append(cc.members[base+c], name)
				check = append(check, name)
			}
		}
		sort.Strings(off)
		for _, name := range off {
			if oc, was := cc.found[name]; was {
				left = append(left, oc.f)
				delete(cc.found, name)
				delete(cc.members, oc.comp)
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
		if !was {
			oc.comp = joined[name]
			if oc.comp == 0 {
				continue // not on a cycle
			}
		}
		f := cc.rule.finding(fa)
		if was && sameFinding(&f, &oc.f) {
			cc.found[name] = onCycle{fa, oc.f, oc.comp}
			continue
		}
		if was {
			left = append(left, oc.f)
		}
		came = append(came, f)
		cc.found[name] = onCycle{fa, f, oc.comp}
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
