package metrics

import (
	"time"

	"hierlock/internal/proto"
)

// Protocol caches the handles of the protocol metric families that both
// runtimes emit — the live member (hierlock.Member) and the simulator's
// nodes (internal/cluster) — so a simulated run and a production scrape
// share one definition of every series: name, help text, labels and
// buckets. The zero value (or one built on a nil registry) is disabled:
// every handle is nil and every method a no-op that allocates nothing.
type Protocol struct {
	// Requests counts client lock requests issued, Acquires completed
	// acquisitions (ObserveGrant counts the ones that waited on the
	// protocol) and Fences fencing tokens minted.
	Requests *Counter
	Acquires *Counter
	Fences   *Counter

	reg  *Registry
	base time.Duration

	// sent is indexed by proto.Kind; slot KindInvalid holds the
	// "unknown" series that out-of-range kinds land in.
	sent      [proto.KindLeaveAck + 1]*Counter
	latency   *Histogram
	factor    *Histogram
	opLatency [2][4]*Histogram // by Op*, Outcome*
	queueWait *Histogram
	tokenHops *Histogram
}

// NewProtocol registers the shared protocol families on reg, every series
// pre-registered at zero so the first scrape is complete before any
// traffic. base is the mean point-to-point network latency the
// latency-factor histogram (the paper's Figure 6) divides by. A nil reg
// returns the disabled value.
func NewProtocol(reg *Registry, base time.Duration) Protocol {
	if reg == nil {
		return Protocol{}
	}
	p := Protocol{reg: reg, base: base}
	for k := range p.sent {
		p.sent[k] = reg.Counter(MetricMessagesTotal,
			"Protocol messages sent, by kind.", Labels{"kind": KindLabel(proto.Kind(k))})
	}
	p.Requests = reg.Counter(MetricRequestsTotal,
		"Client lock requests issued (including upgrades and local joins).", nil)
	p.Acquires = reg.Counter(MetricAcquiresTotal,
		"Completed lock acquisitions (grants, upgrades, shared joins).", nil)
	p.latency = reg.Histogram(MetricRequestLatency,
		"Issue-to-grant lock request latency in seconds.",
		DefLatencyBuckets, nil)
	p.factor = reg.Histogram(MetricRequestLatencyFactor,
		"Request latency as a multiple of the mean point-to-point network latency (Figure 6).",
		LatencyFactorBuckets, nil)
	for oi, op := range OpKinds {
		for ci, oc := range Outcomes {
			p.opLatency[oi][ci] = reg.Histogram(MetricOpLatency,
				"End-to-end client operation latency in seconds, by operation and grant outcome.",
				DefLatencyBuckets, Labels{"op": op, "outcome": oc})
		}
	}
	p.queueWait = reg.Histogram(MetricQueueWait,
		"Per-lock admission queue wait in seconds, request issue to protocol entry.",
		DefLatencyBuckets, nil)
	p.tokenHops = reg.Histogram(MetricTokenHops,
		"Token transfers observed per granted request (0 = pure local grant; Figure 5).",
		TokenHopBuckets, nil)
	p.Fences = reg.Counter(MetricFenceTokens,
		"Fencing tokens issued (grants, upgrades, shared joins, hand-offs).", nil)
	return p
}

// Enabled reports whether a registry is attached, so callers can skip
// work (a clock read) whose only use is an observation.
func (p *Protocol) Enabled() bool { return p.reg != nil }

// CountSent records one protocol message sent. Every kind proto defines
// has its own series; out-of-range kinds count as "unknown".
func (p *Protocol) CountSent(k proto.Kind) {
	if k > proto.KindLeaveAck {
		k = proto.KindInvalid
	}
	p.sent[k].Inc()
}

// ObserveGrant records one completed acquisition's issue-to-grant latency
// in the latency and latency-factor histograms.
func (p *Protocol) ObserveGrant(d time.Duration) {
	if p.reg == nil {
		return
	}
	p.Acquires.Inc()
	p.latency.Observe(d.Seconds())
	p.factor.Observe(d.Seconds() / p.base.Seconds())
}

// ObserveOp records one finished client operation (op is an Op* index,
// outcome an Outcome* index) under its per-operation latency series and,
// unless it was lost (a lost operation never got a token), the token
// hops its wait observed.
func (p *Protocol) ObserveOp(op, outcome int, d time.Duration, hops int) {
	if p.reg == nil {
		return
	}
	p.opLatency[op][outcome].Observe(d.Seconds())
	if outcome != OutcomeLost {
		p.tokenHops.Observe(float64(hops))
	}
}

// ObserveQueueWait records a request's admission queue wait, issue to
// protocol entry.
func (p *Protocol) ObserveQueueWait(d time.Duration) { p.queueWait.Observe(d.Seconds()) }

// TokenTransfer counts one token transfer on lock (its label value) in
// direction "in" or "out". It looks the series up per call, so callers
// check Enabled before rendering the label.
func (p *Protocol) TokenTransfer(lock, direction string) {
	if p.reg == nil {
		return
	}
	p.reg.Counter(MetricTokenTransfers,
		"Token transfers observed by this node.",
		Labels{"lock": lock, "direction": direction}).Inc()
}

// Sessions caches the session-lease counter families that the lockd
// session tier (internal/session) and the simulator's leases both emit.
// The live-session gauge stays with each side: the session tier collects
// it from its table at scrape time, the simulator keeps a gauge.
type Sessions struct {
	Opened, Adopted, Closed, Expired, Renewals, LocksReaped *Counter
}

// NewSessions registers the session-lease counters on reg (all nil
// no-ops for a nil reg).
func NewSessions(reg *Registry) Sessions {
	return Sessions{
		Opened: reg.Counter(MetricSessionsOpened,
			"Named client sessions created.", nil),
		Adopted: reg.Counter(MetricSessionsAdopted,
			"Reconnections that re-adopted a live detached session.", nil),
		Closed: reg.Counter(MetricSessionsClosed,
			"Sessions closed explicitly by clients.", nil),
		Expired: reg.Counter(MetricSessionsExpired,
			"Sessions reaped by the lease sweeper.", nil),
		Renewals: reg.Counter(MetricSessionRenewals,
			"Session lease renewals (explicit and activity-based).", nil),
		LocksReaped: reg.Counter(MetricSessionLocksReaped,
			"Locks force-released because their session's lease expired.", nil),
	}
}
