package introspect

import (
	"sort"

	"hierlock/internal/hlock"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// EngineLockInfo projects one lock's engine state at node self into its
// inventory entry: epoch, token, held and pending modes, frozen modes,
// probable-owner next hop (-1 at the token root), stale drops, the
// copyset sorted by node and the local queue. w is the node's own
// outstanding request (nil when none); it is attached as Waiter and
// paired with the node's own queued request. Callers that know the
// resource name set Resource.
func EngineLockInfo(lock proto.LockID, e *hlock.Engine, self proto.NodeID, w *Waiter) LockInfo {
	li := LockInfo{
		Lock:       uint64(lock),
		Epoch:      e.Epoch(),
		Token:      e.IsToken(),
		Held:       modeString(e.Held()),
		Pending:    modeString(e.Pending()),
		Frozen:     frozenStrings(e.Frozen()),
		Parent:     int(e.Parent()),
		StaleDrops: e.StaleDrops(),
		Waiter:     w,
	}
	if ch := e.Children(); len(ch) > 0 {
		cs := make([]CopysetEntry, 0, len(ch))
		for node, md := range ch {
			cs = append(cs, CopysetEntry{Node: int(node), Mode: modeString(md)})
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].Node < cs[j].Node })
		li.Copyset = cs
	}
	li.Queue = QueueInfo(e.Queue(), self, w)
	return li
}

// frozenStrings renders a frozen-mode set for inventory JSON.
func frozenStrings(s modes.Set) []string {
	ms := s.Modes()
	if len(ms) == 0 {
		return nil
	}
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

// RegisterEngineGauges registers the scrape-time per-lock engine gauges
// (queue depth, copyset size, frozen modes, token held). Every scrape
// calls walk once per gauge; walk yields each engine with its series
// labels and takes whatever locks reading the engines needs.
func RegisterEngineGauges(reg *metrics.Registry, walk func(yield func(metrics.Labels, *hlock.Engine))) {
	gauge := func(f func(*hlock.Engine) float64) metrics.Collector {
		return func(emit func(metrics.Labels, float64)) {
			walk(func(l metrics.Labels, e *hlock.Engine) { emit(l, f(e)) })
		}
	}
	reg.Collect(metrics.MetricLockQueueDepth,
		"Locally queued requests per lock.", "gauge",
		gauge(func(e *hlock.Engine) float64 { return float64(e.QueueLen()) }))
	reg.Collect(metrics.MetricLockCopyset,
		"Copyset size (children holding a granted copy) per lock.", "gauge",
		gauge(func(e *hlock.Engine) float64 { return float64(len(e.Children())) }))
	reg.Collect(metrics.MetricLockFrozen,
		"Number of frozen modes per lock.", "gauge",
		gauge(func(e *hlock.Engine) float64 { return float64(e.Frozen().Len()) }))
	reg.Collect(metrics.MetricTokenHeld,
		"Whether this node holds the lock's token (0 or 1).", "gauge",
		gauge(func(e *hlock.Engine) float64 {
			if e.IsToken() {
				return 1
			}
			return 0
		}))
}
