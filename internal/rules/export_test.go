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
