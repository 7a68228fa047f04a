package cluster

import (
	"strconv"
	"time"

	"hierlock/internal/hlock"
	"hierlock/internal/introspect"
	"hierlock/internal/metrics"
)

// telemetry is the cluster's registry wiring. The protocol families come
// from metrics.Protocol and the lease counters from metrics.Sessions,
// the same handles the live member and the lockd session tier register,
// so simulator runs and production scrapes answer the same queries. A
// cluster without a registry keeps the zero value: nil no-op handles.
type telemetry struct {
	metrics.Protocol
	sessions     metrics.Sessions
	sessionsOpen *metrics.Gauge
}

// registerTelemetry wires the cluster's metric handles and scrape-time
// collectors into reg.
func (c *Cluster) registerTelemetry(reg *metrics.Registry, base time.Duration) {
	if base <= 0 {
		base = DefaultLatencyMean
	}
	c.tel.Protocol = metrics.NewProtocol(reg, base)
	c.tel.sessions = metrics.NewSessions(reg)
	c.tel.sessionsOpen = reg.Gauge(metrics.MetricSessionsOpen,
		"Named client sessions currently live.", nil)
	c.Net.tel = &c.tel.Protocol
	c.registerLockCollectors(reg)
}

// registerLockCollectors registers scrape-time gauges over every node's
// hierarchical engine state, labelled by node and lock. The collectors
// read engine state without synchronization — the simulator is
// single-threaded — so scrape only while the simulator is idle (between
// Run calls or after the run finished).
func (c *Cluster) registerLockCollectors(reg *metrics.Registry) {
	introspect.RegisterEngineGauges(reg, func(yield func(metrics.Labels, *hlock.Engine)) {
		for _, n := range c.Nodes {
			for id, e := range n.hier {
				yield(metrics.Labels{
					"node": strconv.Itoa(int(n.ID)),
					"lock": strconv.FormatUint(uint64(id), 10),
				}, e)
			}
		}
	})
	// Each simulated node's lock table is a single stripe; the live
	// member spreads its table over many (see member.go). Emitting the
	// same families keeps dashboards portable between the two.
	reg.Collect(metrics.MetricStripeLocks,
		"Tracked locks per shard stripe of the member's lock table.", "gauge",
		func(emit func(metrics.Labels, float64)) {
			for _, n := range c.Nodes {
				emit(metrics.Labels{
					"node":   strconv.Itoa(int(n.ID)),
					"stripe": "0",
				}, float64(n.TrackedLocks()))
			}
		})
	reg.Collect(metrics.MetricLamportClock,
		"The member's Lamport clock (its rate proxies protocol activity).", "gauge",
		func(emit func(metrics.Labels, float64)) {
			for _, n := range c.Nodes {
				emit(metrics.Labels{"node": strconv.Itoa(int(n.ID))},
					float64(n.clock.Now()))
			}
		})
}
