package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hierlock"
	"hierlock/internal/hlock"
	"hierlock/internal/journal"
	"hierlock/internal/lockserver"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/session"
	"hierlock/internal/transport"
)

// layerMetric is one per-layer metric: the layer it costs and the
// end-to-end metric and workload it should move (README.md gives the
// same map for issues to cite).
type layerMetric struct {
	layer, name, unit, better string
}

// perLayer lists every per-layer metric in report order. A traced run
// reports each of them on every workload, but measures only the layers
// the workload exercises; the rest print as n/a and report 0. Counters
// read from lockd are measured on both lockd workloads, so a counter
// of an idle layer there is a measured 0.
var perLayer = []layerMetric{
	{"client", "client.acquire_p50_us", "us", "lower"},
	{"client", "client.release_p50_us", "us", "lower"},
	{"lockserver", "lockserver.self_us", "us", "lower"},
	{"lockserver", "cpu_share.lockserver", "fraction", "lower"},
	{"lockserver", "cpu_share.syscall", "fraction", "lower"},
	{"session", "session.self_us", "us", "lower"},
	{"session", "session.handoffs_per_cycle", "count", "higher"},
	{"session", "session.enqueued_per_cycle", "count", "lower"},
	{"member", "member.lock_p50_us", "us", "lower"},
	{"member", "member.lock_p99_us", "us", "lower"},
	{"member", "member.unlock_p50_us", "us", "lower"},
	{"member", "member.allocs_per_cycle", "count", "lower"},
	{"member", "member.remote_frac", "fraction", "lower"},
	{"member", "member.queue_wait_mean_us", "us", "lower"},
	{"member", "member.shared_joins_per_cycle", "count", "higher"},
	{"member", "cpu_share.member", "fraction", "lower"},
	{"hlock", "hlock.local_grant_ns", "ns", "lower"},
	{"hlock", "hlock.handoff_ns", "ns", "lower"},
	{"hlock", "hlock.msgs_per_cycle.request", "count", "lower"},
	{"hlock", "hlock.msgs_per_cycle.grant", "count", "lower"},
	{"hlock", "hlock.msgs_per_cycle.token", "count", "lower"},
	{"hlock", "hlock.msgs_per_cycle.release", "count", "lower"},
	{"hlock", "hlock.msgs_per_cycle.freeze", "count", "lower"},
	{"hlock", "hlock.token_transfers_per_cycle", "count", "lower"},
	{"hlock", "cpu_share.hlock", "fraction", "lower"},
	{"proto", "proto.encode_ns", "ns", "lower"},
	{"proto", "proto.decode_ns", "ns", "lower"},
	{"proto", "proto.bytes_per_cycle", "bytes", "lower"},
	{"transport", "transport.hop_us", "us", "lower"},
	{"transport", "transport.frames_per_cycle", "count", "lower"},
	{"transport", "cpu_share.transport", "fraction", "lower"},
	{"journal", "journal.append_us", "us", "lower"},
	{"journal", "journal.records_per_cycle", "count", "lower"},
	{"journal", "journal.fsyncs_per_cycle", "count", "lower"},
	{"journal", "journal.fsync_p50_us", "us", "lower"},
	{"journal", "cpu_share.journal", "fraction", "lower"},
	{"telemetry", "cpu_share.telemetry", "fraction", "lower"},
	{"recovery", "recovery.heartbeats_per_s", "1/s", "lower"},
	{"recovery", "recovery.rounds", "count", "lower"},
	{"sim", "sim.cell_s", "s", "lower"},
	{"sim", "sim.events_per_cell", "count", "lower"},
	{"sim", "sim.ns_per_event", "ns", "lower"},
	{"sim", "sim.allocs_per_cell", "count", "lower"},
	{"sim", "sim.alloc_mb_per_cell", "MB", "lower"},
	{"sim", "sim.msgs_per_req", "count", "lower"},
	{"sim", "sim.latency_factor", "x", "lower"},
	{"sim", "sim.latency_p99_factor", "x", "lower"},
	{"sim", "cpu_share.cluster", "fraction", "lower"},
	{"sim", "cpu_share.sim", "fraction", "lower"},
	{"sim", "cpu_share.workload", "fraction", "lower"},
	{"runtime", "runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime", "cpu_share.runtime_malloc", "fraction", "lower"},
}

// layerMoves is the layer → end-to-end map: which end-to-end metric a
// saving in the layer should move, and on which workload.
var layerMoves = map[string]string{
	"client":     "acquire_mean_us, acquire_p99_us on both lockd workloads",
	"lockserver": "acquire_mean_us, cycles_per_s on both lockd workloads, most on lockd-local-durable",
	"session":    "acquire_mean_us on both lockd workloads",
	"member":     "acquire_mean_us, cycles_per_s on lockd-local-durable (synchronous-grant fast path) and lockd-migrate",
	"hlock":      "cycles_per_s on sim-airline-120; no move on the lockd workloads (copysets of at most 3 members)",
	"proto":      "acquire_mean_us on lockd-migrate; no move on lockd-local-durable",
	"transport":  "acquire_mean_us, cycles_per_s on lockd-migrate; no move on lockd-local-durable",
	"journal":    "acquire_p99_us, cycles_per_s on lockd-local-durable; no move on lockd-migrate",
	"telemetry":  "cycles_per_s on both lockd workloads",
	"recovery":   "background cost only; should move nothing (rounds must stay 0)",
	"sim":        "cycles_per_s on sim-airline-120 (value-typed events, reused Out buffers)",
	"runtime":    "cycles_per_s on every workload",
}

// cpuShareNames maps profile buckets to their per-layer metric.
var cpuShareNames = map[string]string{
	"lockserver":     "cpu_share.lockserver",
	"syscall":        "cpu_share.syscall",
	"member":         "cpu_share.member",
	"hlock":          "cpu_share.hlock",
	"transport":      "cpu_share.transport",
	"journal":        "cpu_share.journal",
	"telemetry":      "cpu_share.telemetry",
	"cluster":        "cpu_share.cluster",
	"sim":            "cpu_share.sim",
	"workload":       "cpu_share.workload",
	"runtime_gc":     "runtime.gc_cpu_frac",
	"runtime_malloc": "cpu_share.runtime_malloc",
}

// cpuShares turns profile buckets into per-layer metric values.
func cpuShares(bk *cpuBuckets, into map[string]float64) {
	for bucket, name := range cpuShareNames {
		into[name] = bk.share(bucket)
	}
}

// layerResult renders per-layer values in report order, printing the
// table grouped by layer, and returns them as metrics.
func layerResult(o options, vals map[string]float64) []metric {
	var ms []metric
	fmt.Fprintf(o.out, "# per-layer metrics, %s (seed %d)\n", o.workload, o.seed)
	last := ""
	for _, lm := range perLayer {
		if lm.layer != last {
			fmt.Fprintf(o.out, "# [%s] moves: %s\n", lm.layer, layerMoves[lm.layer])
			last = lm.layer
		}
		v, ok := vals[lm.name]
		if ok {
			fmt.Fprintf(o.out, "#   %-34s %14.6g %s\n", lm.name, v, lm.unit)
		} else {
			fmt.Fprintf(o.out, "#   %-34s %14s (layer not exercised; reported as 0)\n", lm.name, "n/a")
		}
		ms = append(ms, metric{lm.name, lm.unit, v})
	}
	return ms
}

// spans collects span durations of one kind in nanoseconds.
type spans []float64

func (s spans) quantileUS(q float64) float64 {
	c := append(spans(nil), s...)
	sort.Float64s(c)
	return percentile(c, q) / 1e3
}

// memberCluster is an in-process three-member TCP cluster built with
// the library's public constructor, for spans at the Member boundary
// and below.
type memberCluster struct {
	members []*hierlock.Member
	regs    []*metrics.Registry
}

func startMembers(dir string, durable bool) (*memberCluster, error) {
	addrs, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	mc := &memberCluster{}
	for i := 0; i < 3; i++ {
		peers := map[int]string{}
		for j, a := range addrs {
			if j != i {
				peers[j] = a
			}
		}
		cfg := hierlock.TCPMemberConfig{
			ID: i, Root: 0, ListenAddr: addrs[i], Peers: peers,
			HeartbeatInterval: 100 * time.Millisecond,
		}
		if durable {
			cfg.DataDir = filepath.Join(dir, fmt.Sprintf("member-%d", i))
			cfg.FsyncPolicy = hierlock.FsyncNever
		}
		m, err := hierlock.NewTCPMember(cfg)
		if err != nil {
			mc.close()
			return nil, fmt.Errorf("in-process member %d: %w", i, err)
		}
		reg := metrics.NewRegistry()
		m.SetTelemetry(hierlock.Telemetry{Registry: reg})
		mc.members = append(mc.members, m)
		mc.regs = append(mc.regs, reg)
	}
	return mc, nil
}

// scrape reads every in-process member's metrics registry.
func (mc *memberCluster) scrape() ([]promSnapshot, error) {
	out := make([]promSnapshot, len(mc.regs))
	for i, reg := range mc.regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		s, err := parseProm(&buf)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// queueWaitMeanUS is the mean issue→protocol-entry wait over a window.
func queueWaitMeanUS(d promDelta) float64 {
	return 1e6 * d.histMean("hierlock_queue_wait_seconds", nil)
}

func (mc *memberCluster) close() {
	for _, m := range mc.members {
		_ = m.Close()
	}
}

// heldOp is a library-level hold of one workload op.
type heldOp struct {
	lock *hierlock.Lock
	path *hierlock.PathLock
}

func (h heldOp) unlock() error {
	if h.path != nil {
		return h.path.Unlock()
	}
	return h.lock.Unlock()
}

// lockOp performs the member-level acquisition lockd performs for op:
// LockPath for a LOCKPATH op, Lock for a LOCK op.
func lockOp(ctx context.Context, m *hierlock.Member, op *liveOp) (heldOp, error) {
	if op.path != nil {
		pl, err := m.LockPath(ctx, op.path, op.mode)
		if err != nil {
			return heldOp{}, err
		}
		return heldOp{lock: pl.Leaf(), path: pl}, nil
	}
	l, err := m.Lock(ctx, op.name, op.mode)
	return heldOp{lock: l}, err
}

// liveLayerSpans drives a lockd workload's seeded operation stream into
// the public entry points of each layer the workload exercises, in
// process, and returns the span figures. The codec and transport are
// costed only when the workload's grants cross between members, the
// journal only when it is durable. Each stage replays the same stream
// from the same seed, so "self time" differences compare like with like.
func liveLayerSpans(o options, spec liveSpec, budget time.Duration) (map[string]float64, error) {
	vals := map[string]float64{}
	dir := filepath.Join(o.workdir, "inproc")
	mc, err := startMembers(dir, spec.durable)
	if err != nil {
		return nil, err
	}
	defer mc.close()
	stage := budget / 4
	stream := func() *rand.Rand { return rand.New(rand.NewSource(o.seed*7 + 3)) }
	memberFor := func(i int) *hierlock.Member { return mc.members[spec.conns[i%2]] }
	ctx := context.Background()

	// Stage 1: client → lockserver.Server over loopback.
	rtt, err := lockserverStage(spec, memberFor, stream(), stage)
	if err != nil {
		return nil, err
	}

	// Stage 2: session.Manager.Acquire around an Acquirer that performs
	// the member-level acquisition; the Acquirer's span is the child.
	var sessSpan, sessSelf spans
	{
		// One manager per lockd, as each lockd owns its admission queues.
		mgrs := map[*hierlock.Member]*session.Manager{}
		for i := 0; i < 2; i++ {
			if m := memberFor(i); mgrs[m] == nil {
				mgrs[m] = session.NewManager(session.Config{})
				defer mgrs[m].Close()
			}
		}
		rng := stream()
		start := time.Now()
		for i := 0; time.Since(start) < stage; i++ {
			op := &spec.ops[spec.pick(rng)]
			m := memberFor(i)
			mgr := mgrs[m]
			var child time.Duration
			var held heldOp
			t0 := time.Now()
			l, _, err := mgr.Acquire(ctx, op.name, op.mode, func(ctx context.Context) (*hierlock.Lock, error) {
				c0 := time.Now()
				h, err := lockOp(ctx, m, op)
				child = time.Since(c0)
				held = h
				return h.lock, err
			})
			total := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("in-process session acquire: %w", err)
			}
			sessSpan = append(sessSpan, float64(total))
			sessSelf = append(sessSelf, float64(total-child))
			// Release disposes of the leaf through the admission queue;
			// a path's ancestors are released after it, skipping the
			// already released leaf.
			if err := mgr.Release(op.name, op.mode, l); err != nil {
				return nil, fmt.Errorf("in-process session release: %w", err)
			}
			if held.path != nil {
				if err := held.path.Unlock(); err != nil && !errors.Is(err, hierlock.ErrReleased) {
					return nil, fmt.Errorf("in-process session release: %w", err)
				}
			}
		}
	}

	// Stage 3: Member.Lock/LockPath and Unlock directly, with the
	// allocations of whole cycles and the members' queue-wait histogram.
	var lockSp, unlockSp spans
	{
		before, err := mc.scrape()
		if err != nil {
			return nil, err
		}
		rng := stream()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		n := 0
		for ; time.Since(start) < stage; n++ {
			op := &spec.ops[spec.pick(rng)]
			t0 := time.Now()
			h, err := lockOp(ctx, memberFor(n), op)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("in-process member lock: %w", err)
			}
			if err := h.unlock(); err != nil {
				return nil, fmt.Errorf("in-process member unlock: %w", err)
			}
			t2 := time.Now()
			lockSp = append(lockSp, float64(t1.Sub(t0)))
			unlockSp = append(unlockSp, float64(t2.Sub(t1)))
		}
		runtime.ReadMemStats(&ms1)
		vals["member.allocs_per_cycle"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(n))
		after, err := mc.scrape()
		if err != nil {
			return nil, err
		}
		vals["member.queue_wait_mean_us"] = queueWaitMeanUS(promDelta{before, after})
	}

	vals["member.lock_p50_us"] = lockSp.quantileUS(0.5)
	vals["member.lock_p99_us"] = lockSp.quantileUS(0.99)
	vals["member.unlock_p50_us"] = unlockSp.quantileUS(0.5)
	vals["session.self_us"] = sessSelf.quantileUS(0.5)
	vals["lockserver.self_us"] = rtt.quantileUS(0.5) - sessSpan.quantileUS(0.5)

	if spec.peerFrames {
		if err := codecSpans(spec, o.seed, stage/2, vals); err != nil {
			return nil, err
		}
		if err := transportSpans(stage/2, vals); err != nil {
			return nil, err
		}
	}
	if spec.durable {
		if err := journalSpans(filepath.Join(dir, "journal-spans"), spec, o.seed, stage/2, vals); err != nil {
			return nil, err
		}
	}
	engineSpans(func(rng *rand.Rand) hierlock.Mode { return spec.ops[spec.pick(rng)].mode }, o.seed, stage/2, vals)
	return vals, nil
}

// lockserverStage times client → lockserver.Server round trips over
// loopback, one connection per member the workload's clients use,
// alternated op by op, and returns the LOCK round trips.
func lockserverStage(spec liveSpec, memberFor func(int) *hierlock.Member, rng *rand.Rand, budget time.Duration) (rtt spans, err error) {
	var conns []*client
	var servers []*lockserver.Server
	var served sync.WaitGroup
	defer func() {
		for _, c := range conns {
			_ = c.conn.Close()
		}
		for _, srv := range servers {
			_ = srv.Close()
		}
		served.Wait()
	}()
	for i := 0; i < 2; i++ {
		srv := lockserver.New(memberFor(i))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		served.Add(1)
		go func() {
			defer served.Done()
			_ = srv.Serve(ln)
		}()
		servers = append(servers, srv)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		conns = append(conns, &client{idx: i, conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)})
	}
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start)) }
	for i := 0; time.Since(start) < budget; i++ {
		c := conns[i%2]
		idx := spec.pick(rng)
		if err := c.runCycle(&spec.ops[idx], idx, 0, clock); err != nil {
			return nil, fmt.Errorf("in-process lockserver: %w", err)
		}
		cy := c.cycles[len(c.cycles)-1]
		rtt = append(rtt, float64(cy.t1-cy.t0))
	}
	return rtt, nil
}

// engineSpans costs the pure protocol engine on the workload's mode
// stream: a local grant on the token holder, and a remote acquisition
// that moves or copies the grant between two engines (every engine call
// of one such cycle, message routing included).
func engineSpans(mode func(*rand.Rand) hierlock.Mode, seed int64, budget time.Duration, vals map[string]float64) {
	const lock proto.LockID = 7
	rng := rand.New(rand.NewSource(seed*11 + 5))
	local := hlock.New(0, lock, 0, true, &proto.Clock{}, hlock.Options{})
	var n int
	var busy time.Duration
	for start := time.Now(); time.Since(start) < budget; n++ {
		m := mode(rng)
		t0 := time.Now()
		_, _ = local.Acquire(m)
		busy += time.Since(t0)
		_, _ = local.Release()
	}
	vals["hlock.local_grant_ns"] = ratio(float64(busy.Nanoseconds()), float64(n))

	engines := []*hlock.Engine{
		hlock.New(0, lock, 0, true, &proto.Clock{}, hlock.Options{}),
		hlock.New(1, lock, 0, false, &proto.Clock{}, hlock.Options{}),
	}
	route := func(out hlock.Out) {
		queue := append([]proto.Message(nil), out.Msgs...)
		for len(queue) > 0 {
			msg := queue[0]
			queue = queue[1:]
			next, _ := engines[msg.To].Handle(&msg)
			queue = append(queue, next.Msgs...)
		}
	}
	busy, n = 0, 0
	for start := time.Now(); time.Since(start) < budget; n++ {
		e := engines[n%2]
		m := mode(rng)
		t0 := time.Now()
		out, _ := e.Acquire(m)
		route(out)
		out, _ = e.Release()
		route(out)
		busy += time.Since(t0)
	}
	vals["hlock.handoff_ns"] = ratio(float64(busy.Nanoseconds()), float64(n))
}

// codecSpans costs the wire codec on the messages the workload's
// acquisitions put on the wire: a Request and the Token that answers it.
func codecSpans(spec liveSpec, seed int64, budget time.Duration, vals map[string]float64) error {
	rng := rand.New(rand.NewSource(seed*13 + 7))
	var buf []byte
	var enc, dec time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < budget; n++ {
		op := &spec.ops[spec.pick(rng)]
		req := proto.Request{Origin: 1, Mode: op.mode, TS: proto.Timestamp(n + 1), Trace: proto.TraceID{Node: 1, Seq: uint64(n + 1)}}
		msgs := [2]proto.Message{
			{Kind: proto.KindRequest, Lock: proto.LockID(hierlock.ResourceID(op.name)), From: 1, To: 0, TS: req.TS, Req: req},
			{Kind: proto.KindToken, Lock: proto.LockID(hierlock.ResourceID(op.name)), From: 0, To: 1, TS: req.TS + 1, Mode: op.mode, Queue: []proto.Request{req}},
		}
		for i := range msgs {
			t0 := time.Now()
			buf = proto.AppendFrame(buf[:0], &msgs[i])
			t1 := time.Now()
			m, err := proto.DecodeMessage(buf[4:])
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("decode own frame: %w", err)
			}
			proto.PutMessage(m)
			enc += t1.Sub(t0)
			dec += t2.Sub(t1)
		}
	}
	vals["proto.encode_ns"] = ratio(float64(enc.Nanoseconds()), float64(2*n))
	vals["proto.decode_ns"] = ratio(float64(dec.Nanoseconds()), float64(2*n))
	return nil
}

// transportSpans times TCPTransport.Send to the peer's handler on a
// loopback pair, one frame in flight at a time.
func transportSpans(budget time.Duration, vals map[string]float64) error {
	addrs, err := freePorts(2)
	if err != nil {
		return err
	}
	a, err := transport.NewTCP(transport.TCPConfig{Self: 0, ListenAddr: addrs[0], Peers: map[proto.NodeID]string{1: addrs[1]}})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCP(transport.TCPConfig{Self: 1, ListenAddr: addrs[1], Peers: map[proto.NodeID]string{0: addrs[0]}})
	if err != nil {
		return err
	}
	defer b.Close()
	got := make(chan time.Time, 1)
	if err := a.Start(func(*proto.Message) {}); err != nil {
		return err
	}
	if err := b.Start(func(*proto.Message) { got <- time.Now() }); err != nil {
		return err
	}
	var hops spans
	for start := time.Now(); time.Since(start) < budget; {
		msg := proto.Message{Kind: proto.KindRequest, From: 0, To: 1, Lock: 7, Req: proto.Request{Origin: 0, Mode: modes.W}}
		t0 := time.Now()
		if err := a.Send(&msg); err != nil {
			return fmt.Errorf("transport send: %w", err)
		}
		select {
		case t1 := <-got:
			hops = append(hops, float64(t1.Sub(t0)))
		case <-time.After(5 * time.Second):
			return errors.New("transport hop: no delivery within 5s")
		}
	}
	vals["transport.hop_us"] = hops.quantileUS(0.5)
	return nil
}

// journalSpans times journal.Append and Sync (one fsync) on records
// shaped like the workload's grants, in a fresh journal directory.
func journalSpans(dir string, spec liveSpec, seed int64, budget time.Duration, vals map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		return fmt.Errorf("journal open: %w", err)
	}
	defer j.Close()
	rng := rand.New(rand.NewSource(seed*17 + 9))
	var appends, syncs spans
	for start, n := time.Now(), 0; time.Since(start) < budget; n++ {
		op := &spec.ops[spec.pick(rng)]
		rec := journal.Record{Kind: journal.RecGrant, Lock: proto.LockID(hierlock.ResourceID(op.name)), Mode: op.mode, Token: true, TS: uint64(n + 1)}
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
		t1 := time.Now()
		if err := j.Sync(); err != nil {
			return fmt.Errorf("journal sync: %w", err)
		}
		t2 := time.Now()
		appends = append(appends, float64(t1.Sub(t0)))
		syncs = append(syncs, float64(t2.Sub(t1)))
	}
	vals["journal.append_us"] = appends.quantileUS(0.5)
	vals["journal.fsync_p50_us"] = syncs.quantileUS(0.5)
	return nil
}
