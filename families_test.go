package hierlock_test

import (
	"bufio"
	"context"
	"strings"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/cluster"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/session"
)

// family is one metric family as a scrape exposes it.
type family struct {
	help, typ string
	buckets   []string // histogram "le" bounds of the first series
}

// scrapeFamilies parses a Prometheus text exposition into its families.
func scrapeFamilies(t *testing.T, reg *metrics.Registry) map[string]*family {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams := make(map[string]*family)
	get := func(name string) *family {
		if fams[name] == nil {
			fams[name] = &family{}
		}
		return fams[name]
	}
	seen := make(map[string]string) // histogram → first series labels
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			get(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			get(name).typ = typ
			continue
		}
		name, labels, ok := strings.Cut(line, "{")
		base, isBucket := strings.CutSuffix(name, "_bucket")
		series, le, hasLE := strings.Cut(labels, `le="`)
		if !ok || !isBucket || !hasLE {
			continue
		}
		if first, ok := seen[base]; ok && first != series {
			continue
		}
		seen[base] = series
		le, _, _ = strings.Cut(le, `"`)
		get(base).buckets = append(get(base).buckets, le)
	}
	return fams
}

// TestRuntimesRegisterSameFamilies scrapes a simulated cluster and a live
// member (with a session tier on the same registry, as lockd wires it)
// after similar traffic, and checks that every family both expose has
// the same HELP text, TYPE and histogram bucket bounds: dashboards and
// queries written against one runtime read the other unchanged.
func TestRuntimesRegisterSameFamilies(t *testing.T) {
	simReg := metrics.NewRegistry()
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{7},
		Seed:     1,
		Registry: simReg,
	})
	c.Nodes[2].Acquire(7, modes.W, func() {})
	c.Nodes[1].OpenLease("s", time.Second)
	c.Sim.Run(5 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	liveReg := metrics.NewRegistry()
	cl.Member(1).SetTelemetry(hierlock.Telemetry{Registry: liveReg})
	mgr := session.NewManager(session.Config{Registry: liveReg})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Member(1).Lock(ctx, "res", hierlock.W); err != nil {
		t.Fatal(err)
	}

	sim, live := scrapeFamilies(t, simReg), scrapeFamilies(t, liveReg)
	for name, s := range sim {
		l, ok := live[name]
		if !ok {
			continue
		}
		if s.help != l.help || s.typ != l.typ {
			t.Errorf("%s: sim HELP %q TYPE %s, live HELP %q TYPE %s", name, s.help, s.typ, l.help, l.typ)
		}
		if strings.Join(s.buckets, ",") != strings.Join(l.buckets, ",") {
			t.Errorf("%s: sim buckets %v, live buckets %v", name, s.buckets, l.buckets)
		}
	}
	for _, name := range []string{
		metrics.MetricMessagesTotal, metrics.MetricRequestsTotal, metrics.MetricAcquiresTotal,
		metrics.MetricRequestLatency, metrics.MetricRequestLatencyFactor, metrics.MetricOpLatency,
		metrics.MetricQueueWait, metrics.MetricTokenHops, metrics.MetricFenceTokens,
		metrics.MetricTokenTransfers, metrics.MetricLockQueueDepth, metrics.MetricLockCopyset,
		metrics.MetricLockFrozen, metrics.MetricTokenHeld, metrics.MetricStripeLocks,
		metrics.MetricLamportClock, metrics.MetricSessionsOpen, metrics.MetricSessionsOpened,
		metrics.MetricSessionRenewals, metrics.MetricSessionLocksReaped,
	} {
		if sim[name] == nil || live[name] == nil {
			t.Errorf("family %s not exposed by both runtimes (sim %v, live %v)",
				name, sim[name] != nil, live[name] != nil)
		}
	}
}
