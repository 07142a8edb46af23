package rules

import "repro/internal/artifact"

// CycleRoots returns the names the engine's next update over ix roots
// the recursion rule's Tarjan pass at, nil when that update runs none
// (no graph change) or runs the full SCC instead.
func CycleRoots(s *Sharded, ix *artifact.Index) []string {
	changes, ok := s.changesSince(ix)
	changed := graphChanged(changes)
	if !ok || !s.cyc.ok || len(changed) == 0 {
		return nil
	}
	return s.cyc.roots(changed)
}

// Refresh brings s up to date with ix as core.Assessor brings its engine
// up to date, from walks of parsed units, and returns the findings: an
// engine not yet filled from ix is filled (Fill) from the walk of every
// unit, and a filled one is updated (Update) from the walks of the
// units whose generation moved since its previous update, and no other.
func Refresh(s *Sharded, ix *artifact.Index) []Finding {
	if s.ix != ix {
		s.Fill(ix, walkUnits(ix, s.rules, ix.Paths))
		return s.Findings()
	}
	var changed []string
	for _, p := range ix.Paths {
		if ix.UnitGen(p) > s.seen {
			changed = append(changed, p)
		}
	}
	s.Update(NewContextFromIndex(ix), walkUnits(ix, s.rules, changed))
	return s.Findings()
}
