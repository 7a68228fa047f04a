package hlock

import (
	"fmt"

	"hierlock/internal/modes"
)

// CheckCounters verifies the engine's derived copyset counters against
// the maps they summarize: kids[m] must equal the number of children
// owning m, and frozenViews the number of non-empty recorded frozen
// views. Tests call it after every engine step.
func (e *Engine) CheckCounters() error {
	var kids [len(e.kids)]int32
	for _, m := range e.children {
		if int(m) >= len(kids) {
			return fmt.Errorf("node %d: child mode %v out of range", e.self, m)
		}
		kids[m]++
	}
	if kids != e.kids {
		return fmt.Errorf("node %d: per-mode child counts %v, copyset %v has %v", e.self, e.kids, e.children, kids)
	}
	if kids[modes.U] > 0 && kids[modes.IW] > 0 {
		// ownedChildren's fixed fold order would then pick one of two
		// equally strong modes where the old map fold depended on
		// iteration order; they conflict, so no valid copyset has both.
		return fmt.Errorf("node %d: copyset %v holds both U and IW", e.self, e.children)
	}
	views := 0
	for _, v := range e.sentFrozen {
		if !v.Empty() {
			views++
		}
	}
	if views != e.frozenViews {
		return fmt.Errorf("node %d: %d non-empty frozen views counted, %v has %d", e.self, e.frozenViews, e.sentFrozen, views)
	}
	return nil
}
