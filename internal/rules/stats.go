package rules

import (
	"maps"
	"sort"

	"repro/internal/iso26262"
)

// Stats aggregates findings along the axes the assessment report needs.
type Stats struct {
	Total    int
	ByRule   map[string]int
	ByModule map[string]int
	ByRef    map[iso26262.Ref]int
	// ByRuleModule counts findings per (rule, module).
	ByRuleModule map[string]map[string]int
}

// newStats returns an empty Stats.
func newStats() *Stats {
	return &Stats{
		ByRule:       make(map[string]int),
		ByModule:     make(map[string]int),
		ByRef:        make(map[iso26262.Ref]int),
		ByRuleModule: make(map[string]map[string]int),
	}
}

// Aggregate computes statistics over findings.
func Aggregate(fs []Finding) *Stats {
	s := newStats()
	s.count(fs, 1)
	return s
}

// count adds sign (+1 to add, -1 to subtract) for every finding of fs
// to each count the finding falls under, and deletes every count that
// reaches zero (an emptied ByRuleModule inner map too). Every field of
// Stats is an integer count, so subtracting the findings a change
// replaced and adding their replacements leaves exactly the Stats an
// Aggregate over the current findings builds, in any order and without
// drift: the counting algorithm of incremental view maintenance.
func (s *Stats) count(fs []Finding, sign int) {
	for i := range fs {
		f := &fs[i]
		s.Total += sign
		bump(s.ByRule, f.RuleID, sign)
		bump(s.ByModule, f.Module, sign)
		for _, ref := range f.Refs {
			bump(s.ByRef, ref, sign)
		}
		m := s.ByRuleModule[f.RuleID]
		if m == nil {
			m = make(map[string]int)
			s.ByRuleModule[f.RuleID] = m
		}
		if bump(m, f.Module, sign); len(m) == 0 {
			delete(s.ByRuleModule, f.RuleID)
		}
	}
}

// bump adds d to m[k], deleting the entry when it reaches zero.
func bump[K comparable](m map[K]int, k K, d int) {
	if n := m[k] + d; n != 0 {
		m[k] = n
	} else {
		delete(m, k)
	}
}

// empty reports whether s counts nothing. A signed difference (count
// with both signs) can be empty although it counted findings.
func (s *Stats) empty() bool {
	return s.Total == 0 && len(s.ByRule) == 0 && len(s.ByModule) == 0 &&
		len(s.ByRef) == 0 && len(s.ByRuleModule) == 0
}

// apply adds the signed counts of d to s, deleting every count that
// reaches zero.
func (s *Stats) apply(d *Stats) {
	s.Total += d.Total
	merge(s.ByRule, d.ByRule)
	merge(s.ByModule, d.ByModule)
	merge(s.ByRef, d.ByRef)
	for r, mods := range d.ByRuleModule {
		dst := s.ByRuleModule[r]
		if dst == nil {
			dst = make(map[string]int, len(mods))
			s.ByRuleModule[r] = dst
		}
		// merge's loop, inline: a call inside a map range is flagged
		// by adlint's detrange.
		for m, n := range mods {
			if dst[m] += n; dst[m] == 0 {
				delete(dst, m)
			}
		}
		if len(dst) == 0 {
			delete(s.ByRuleModule, r)
		}
	}
}

// merge adds the counts of src to dst, deleting every count that
// reaches zero.
func merge[K comparable](dst, src map[K]int) {
	for k, n := range src {
		if dst[k] += n; dst[k] == 0 {
			delete(dst, k)
		}
	}
}

// clone returns a deep copy of s.
func (s *Stats) clone() *Stats {
	out := &Stats{
		Total:        s.Total,
		ByRule:       maps.Clone(s.ByRule),
		ByModule:     maps.Clone(s.ByModule),
		ByRef:        maps.Clone(s.ByRef),
		ByRuleModule: make(map[string]map[string]int, len(s.ByRuleModule)),
	}
	for r, mods := range s.ByRuleModule {
		out.ByRuleModule[r] = maps.Clone(mods)
	}
	return out
}

// Count returns the number of findings for a rule, optionally restricted
// to a module ("" = all modules).
func (s *Stats) Count(rule, module string) int {
	if module == "" {
		return s.ByRule[rule]
	}
	return s.ByRuleModule[rule][module]
}

// Rules returns rule IDs with findings, sorted.
func (s *Stats) Rules() []string {
	out := make([]string, 0, len(s.ByRule))
	for r := range s.ByRule {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Filter returns the findings matching the predicate.
func Filter(fs []Finding, pred func(*Finding) bool) []Finding {
	var out []Finding
	for i := range fs {
		if pred(&fs[i]) {
			out = append(out, fs[i])
		}
	}
	return out
}

// ForRef returns findings evidencing an ISO table row.
func ForRef(fs []Finding, ref iso26262.Ref) []Finding {
	return Filter(fs, func(f *Finding) bool {
		for _, r := range f.Refs {
			if r == ref {
				return true
			}
		}
		return false
	})
}
