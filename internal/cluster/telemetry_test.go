package cluster_test

import (
	"strings"
	"testing"
	"time"

	"hierlock/internal/cluster"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// TestSimTelemetry drives a deterministic 3-node acquisition through the
// simulator with both a registry and a recorder attached and checks that
// (a) the reconstructed span has the canonical acquire→token→grant
// shape with the token travelling 0 → 2, and (b) the registry's series
// — under the same family names the live runtime exports — agree with
// the cluster's own counters.
func TestSimTelemetry(t *testing.T) {
	rec := trace.New(1 << 12)
	reg := metrics.NewRegistry()
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{7},
		Seed:     1,
		Trace:    rec,
		Registry: reg,
	})
	granted := false
	c.Nodes[2].Acquire(7, modes.W, func() { granted = true })
	c.Sim.Run(5 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("request never granted")
	}

	spans := trace.Assemble(rec.Entries())
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if !sp.Complete || sp.Node != 2 || sp.Lock != 7 || sp.Mode != modes.W {
		t.Fatalf("span: %+v", sp)
	}
	if sp.Duration() <= 0 {
		t.Fatalf("span duration = %v", sp.Duration())
	}
	if path := sp.TokenPath(); len(path) != 2 || path[0] != 0 || path[1] != 2 {
		t.Fatalf("token path = %v, want [0 2]", path)
	}

	// Registry parity with the cluster's own accumulating counters.
	if got := reg.Counter(metrics.MetricRequestsTotal, "", nil).Value(); got != c.Requests {
		t.Fatalf("requests counter = %d, cluster saw %d", got, c.Requests)
	}
	var regSent uint64
	for _, k := range metrics.Kinds {
		v := reg.Counter(metrics.MetricMessagesTotal, "", metrics.Labels{"kind": k.String()}).Value()
		if v != c.Net.Metrics.ByKind[k] {
			t.Fatalf("kind %v: registry %d != network %d", k, v, c.Net.Metrics.ByKind[k])
		}
		regSent += v
	}
	if regSent != c.Net.Metrics.Total() {
		t.Fatalf("registry sends %d != network total %d", regSent, c.Net.Metrics.Total())
	}
	if got := reg.Counter(metrics.MetricAcquiresTotal, "", nil).Value(); got != 1 {
		t.Fatalf("acquires counter = %d", got)
	}
	lat := reg.Histogram(metrics.MetricRequestLatency, "", nil, nil)
	if lat.Count() != 1 || lat.Sum() != sp.Duration().Seconds() {
		t.Fatalf("latency histogram count=%d sum=%v, span=%v", lat.Count(), lat.Sum(), sp.Duration())
	}
	// The factor histogram observed duration/150ms (the default base).
	factor := reg.Histogram(metrics.MetricRequestLatencyFactor, "", nil, nil)
	want := sp.Duration().Seconds() / cluster.DefaultLatencyMean.Seconds()
	if factor.Count() != 1 || factor.Sum() != want {
		t.Fatalf("factor histogram count=%d sum=%v, want %v", factor.Count(), factor.Sum(), want)
	}
	// One token hop 0→2, counted at both ends.
	for _, dir := range []string{"out", "in"} {
		got := reg.Counter(metrics.MetricTokenTransfers, "",
			metrics.Labels{"direction": dir, "lock": "7"}).Value()
		if got != 1 {
			t.Fatalf("token transfers %s = %d, want 1", dir, got)
		}
	}

	// The scrape exposes the per-node engine gauges: after the run node 2
	// holds the token for lock 7, nodes 0 and 1 do not.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		metrics.MetricTokenHeld + `{lock="7",node="2"} 1`,
		metrics.MetricTokenHeld + `{lock="7",node="0"} 0`,
		metrics.MetricLockQueueDepth + `{lock="7",node="2"} 0`,
		metrics.MetricLockCopyset + `{lock="7",node="2"}`,
		metrics.MetricLockFrozen + `{lock="7",node="2"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestSimTelemetryDeterministic reconstructs the same span shape from
// two identically seeded runs: same step count, same token path, same
// duration — the property that makes simulator traces a debugging
// reference for live ones.
func TestSimTelemetryDeterministic(t *testing.T) {
	run := func() *trace.Span {
		rec := trace.New(1 << 12)
		c := cluster.New(cluster.Config{
			Protocol: cluster.Hierarchical,
			Nodes:    3,
			Locks:    []proto.LockID{7},
			Seed:     42,
			Trace:    rec,
		})
		c.Nodes[2].Acquire(7, modes.W, func() {})
		c.Sim.Run(5 * time.Second)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		spans := trace.Assemble(rec.Entries())
		if len(spans) != 1 {
			t.Fatalf("spans = %d", len(spans))
		}
		return spans[0]
	}
	a, b := run(), run()
	if a.Duration() != b.Duration() || len(a.Steps) != len(b.Steps) {
		t.Fatalf("runs diverged: %v/%d vs %v/%d",
			a.Duration(), len(a.Steps), b.Duration(), len(b.Steps))
	}
	pa, pb := a.TokenPath(), b.TokenPath()
	if len(pa) != len(pb) {
		t.Fatalf("token paths diverged: %v vs %v", pa, pb)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("token paths diverged: %v vs %v", pa, pb)
		}
	}
}

// TestSimTelemetryUnderLoad checks the registry stays consistent across
// a contended multi-lock workload: grants observed in the histogram
// equal grants in the trace, and every message kind matches.
func TestSimTelemetryUnderLoad(t *testing.T) {
	rec := trace.New(1 << 16)
	reg := metrics.NewRegistry()
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    5,
		Locks:    []proto.LockID{1, 2},
		Seed:     7,
		Trace:    rec,
		Registry: reg,
	})
	rng := c.Sim.NewRand()
	var loop func(i int)
	loop = func(i int) {
		lock := proto.LockID(1 + rng.Intn(2))
		m := modes.All[rng.Intn(5)]
		c.Nodes[i].Acquire(lock, m, func() {
			c.Sim.At(time.Duration(rng.Intn(20))*time.Millisecond, func() {
				c.Nodes[i].Release(lock)
				c.Sim.At(time.Duration(rng.Intn(100))*time.Millisecond, func() { loop(i) })
			})
		})
	}
	for i := 0; i < 5; i++ {
		loop(i)
	}
	c.Sim.Run(10 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	counts := rec.Counts()
	lat := reg.Histogram(metrics.MetricRequestLatency, "", nil, nil)
	if lat.Count() != uint64(counts[trace.OpGranted]) {
		t.Fatalf("histogram observed %d grants, trace has %d", lat.Count(), counts[trace.OpGranted])
	}
	if got := reg.Counter(metrics.MetricRequestsTotal, "", nil).Value(); got != c.Requests {
		t.Fatalf("requests counter = %d, cluster saw %d", got, c.Requests)
	}
	for _, k := range metrics.Kinds {
		v := reg.Counter(metrics.MetricMessagesTotal, "", metrics.Labels{"kind": k.String()}).Value()
		if v != c.Net.Metrics.ByKind[k] {
			t.Fatalf("kind %v: registry %d != network %d", k, v, c.Net.Metrics.ByKind[k])
		}
	}
}

// TestSimTelemetryCountsEveryKind: recovery traffic is exported under
// its own kind labels, not as "unknown". The token holder crashes, the
// survivors regenerate the token (probe, claim and recovered frames),
// and for every kind proto defines the registry must agree with the
// network's own per-kind count, leaving "unknown" at zero.
func TestSimTelemetryCountsEveryKind(t *testing.T) {
	const (
		lock   proto.LockID = 1
		victim              = 3
	)
	reg := metrics.NewRegistry()
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    8,
		Locks:    []proto.LockID{lock},
		Seed:     3,
		Registry: reg,
		Faults:   recoveryCrashPlan(victim),
		Recovery: &cluster.RecoveryOptions{
			ConfirmAfter: time.Second,
			ProbeTimeout: 300 * time.Millisecond,
		},
	})
	c.Sim.At(100*time.Millisecond, func() {
		c.Nodes[victim].Acquire(lock, modes.W, func() {})
	})
	granted := false
	c.Sim.At(2500*time.Millisecond, func() {
		c.Nodes[0].Acquire(lock, modes.W, func() { granted = true })
	})
	c.Sim.Run(time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("survivor never granted after recovery")
	}
	for _, k := range []proto.Kind{proto.KindProbe, proto.KindClaim, proto.KindRecovered} {
		if c.Net.Metrics.ByKind[k] == 0 {
			t.Fatalf("scenario sent no %v frames", k)
		}
	}
	for k := proto.KindRequest; k <= proto.KindLeaveAck; k++ {
		v := reg.Counter(metrics.MetricMessagesTotal, "", metrics.Labels{"kind": k.String()}).Value()
		if v != c.Net.Metrics.ByKind[k] {
			t.Errorf("kind %v: registry %d != network %d", k, v, c.Net.Metrics.ByKind[k])
		}
	}
	if v := reg.Counter(metrics.MetricMessagesTotal, "", metrics.Labels{"kind": "unknown"}).Value(); v != 0 {
		t.Errorf(`kind="unknown" = %d, want 0`, v)
	}
}
