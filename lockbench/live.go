package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hierlock"
	"hierlock/internal/workload"
)

// liveSpec describes one lockd workload.
type liveSpec struct {
	// durable runs the members with a journal: -data-dir with -fsync
	// never. Every grant and release is still appended to the WAL, and
	// each compaction still fsyncs its snapshot; only the batched group
	// fsync is off. lockd's default batched policy holds the journal's
	// mutex through an fsync every 2 ms, which on a shared virtual disk
	// ties the workload's throughput and p99 to other tenants' disk load
	// (README.md gives the figures); journal.fsync_p50_us costs that
	// fsync per layer.
	durable bool
	// peerFrames is set when the workload's grants cross between members,
	// so its requests pass through the wire codec and the TCP transport.
	peerFrames bool
	// memberProcs, when set, is each member's GOMAXPROCS. On
	// lockd-migrate all three members are busy on a two-CPU host, and
	// with Go's default of one P per CPU their idle Ps spin against each
	// other: one P per member raised throughput by about half and
	// narrowed its run-to-run spread. The root alone serves lockd-local-durable and
	// keeps the default.
	memberProcs int
	// conns names the member each of the two client connections uses.
	conns [2]int
	// ops is the seeded operation alphabet; pick draws an index into it.
	ops  []liveOp
	pick func(rng *rand.Rand) int
}

// liveOp is one lock/unlock cycle shape, with its protocol lines
// pre-rendered so the client loop does not allocate.
type liveOp struct {
	lock, unlock []byte
	res          uint16
	mode         hierlock.Mode
	// path and name address the same lock through the library API, for
	// the in-process layer spans.
	path []string
	name string
}

const (
	fareRows       = 16 // rows of the fares table on lockd-local-durable
	migrateLocks   = 4  // resources the two members contend for on lockd-migrate
	heartbeatFlag  = "100ms"
	setupRepeats   = 21
	warmup         = time.Second
	stallAfter     = 10 * time.Second
	setupTimeout   = 30 * time.Second
	clientCapacity = 1 << 18 // cycles per client before the record grows
	clientProcs    = 1       // GOMAXPROCS of the benchmark process while it drives lockd
	// One cycle in holdEvery, drawn from the connection's seeded stream,
	// keeps its grant for holdFor before sending UNLOCK, so the other
	// connection's conflicting requests meet a held lock and the overlap
	// check sees real contention.
	holdEvery = 2048
	holdFor   = time.Millisecond
)

// paperMode draws a mode by the paper's mix (the simulator's default).
func paperMode(rng *rand.Rand) hierlock.Mode {
	m := workload.PaperMix
	r := rng.Intn(m.IR + m.R + m.U + m.IW + m.W)
	switch {
	case r < m.IR:
		return hierlock.IR
	case r < m.IR+m.R:
		return hierlock.R
	case r < m.IR+m.R+m.U:
		return hierlock.U
	case r < m.IR+m.R+m.U+m.IW:
		return hierlock.IW
	default:
		return hierlock.W
	}
}

func localDurableSpec() liveSpec {
	var ops []liveOp
	index := map[[2]int]int{}
	for row := 0; row < fareRows; row++ {
		for _, m := range []hierlock.Mode{hierlock.IR, hierlock.R, hierlock.U, hierlock.IW, hierlock.W} {
			index[[2]int{row, int(m)}] = len(ops)
			ops = append(ops, liveOp{
				lock:   []byte(fmt.Sprintf("LOCKPATH %v fares row%d\n", m, row)),
				unlock: []byte(fmt.Sprintf("UNLOCKPATH fares row%d\n", row)),
				res:    uint16(row),
				mode:   m,
				path:   []string{"fares", fmt.Sprintf("row%d", row)},
				name:   fmt.Sprintf("fares/row%d", row),
			})
		}
	}
	return liveSpec{
		durable: true,
		conns:   [2]int{0, 0},
		ops:     ops,
		pick: func(rng *rand.Rand) int {
			m := paperMode(rng)
			return index[[2]int{rng.Intn(fareRows), int(m)}]
		},
	}
}

func migrateSpec() liveSpec {
	var ops []liveOp
	for k := 0; k < migrateLocks; k++ {
		ops = append(ops, liveOp{
			lock:   []byte(fmt.Sprintf("LOCK res%d W\n", k)),
			unlock: []byte(fmt.Sprintf("UNLOCK res%d\n", k)),
			res:    uint16(k),
			mode:   hierlock.W,
			name:   fmt.Sprintf("res%d", k),
		})
	}
	return liveSpec{
		peerFrames:  true,
		memberProcs: 1,
		conns:       [2]int{1, 2},
		ops:         ops,
		pick:        func(rng *rand.Rand) int { return rng.Intn(migrateLocks) },
	}
}

// lockdProc is one launched lockd member.
type lockdProc struct {
	id                  int
	cmd                 *exec.Cmd
	peer, client, debug string
	logPath             string
	exited              chan struct{}
	exitErr             error
}

// liveCluster is three lockd processes on loopback.
type liveCluster struct {
	members []*lockdProc
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startCluster launches three members; member 0 is the root that
// initially holds every token.
func startCluster(bin, dir string, spec liveSpec) (*liveCluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrs, err := freePorts(9)
	if err != nil {
		return nil, err
	}
	c := &liveCluster{}
	for i := 0; i < 3; i++ {
		c.members = append(c.members, &lockdProc{
			id: i, peer: addrs[3*i], client: addrs[3*i+1], debug: addrs[3*i+2],
			logPath: filepath.Join(dir, fmt.Sprintf("lockd-%d.log", i)),
			exited:  make(chan struct{}),
		})
	}
	for _, m := range c.members {
		var peers []string
		for _, o := range c.members {
			if o != m {
				peers = append(peers, fmt.Sprintf("%d=%s", o.id, o.peer))
			}
		}
		args := []string{"-id", strconv.Itoa(m.id), "-listen", m.peer, "-client", m.client,
			"-debug", m.debug, "-peers", strings.Join(peers, ","), "-heartbeat", heartbeatFlag}
		if spec.durable {
			args = append(args, "-data-dir", filepath.Join(dir, fmt.Sprintf("data-%d", m.id)), "-fsync", "never")
		}
		logf, err := os.Create(m.logPath)
		if err != nil {
			c.kill()
			return nil, err
		}
		m.cmd = exec.Command(bin, args...)
		m.cmd.Stdout, m.cmd.Stderr = logf, logf
		if spec.memberProcs > 0 {
			m.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", spec.memberProcs))
		}
		// Should the benchmark itself be killed, the kernel kills the
		// member too, so no lockd outlives a run.
		m.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := m.cmd.Start(); err != nil {
			logf.Close()
			c.kill()
			return nil, fmt.Errorf("start lockd %d: %w", m.id, err)
		}
		go func(m *lockdProc, logf *os.File) {
			m.exitErr = m.cmd.Wait()
			logf.Close()
			close(m.exited)
		}(m, logf)
	}
	return c, nil
}

// stop ends every member: SIGTERM (a graceful drain) unless kill is
// set, SIGKILL after a grace period either way, and waits for exit.
func (c *liveCluster) stop(kill bool) {
	for _, m := range c.members {
		if m.cmd == nil || m.cmd.Process == nil {
			continue
		}
		if kill {
			_ = m.cmd.Process.Kill()
		} else {
			_ = m.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, m := range c.members {
		if m.cmd == nil || m.cmd.Process == nil {
			continue
		}
		select {
		case <-m.exited:
		case <-time.After(5 * time.Second):
			_ = m.cmd.Process.Kill()
			<-m.exited
		}
	}
}

func (c *liveCluster) kill() { c.stop(true) }

// exitedEarly reports a member that died while it should be serving.
func (c *liveCluster) exitedEarly() error {
	for _, m := range c.members {
		select {
		case <-m.exited:
			return fmt.Errorf("lockd %d exited (%v); log %s:\n%s", m.id, m.exitErr, m.logPath, tail(m.logPath))
		default:
		}
	}
	return nil
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// client is one closed-loop connection: it issues a cycle's next command
// only once the previous reply arrived.
type client struct {
	idx      int
	conn     net.Conn
	r        *bufio.Reader
	w        *bufio.Writer
	rng      *rand.Rand
	progress atomic.Int64
	cycles   []cycle
	failures []string
}

// cycle is one lock+unlock as the client timed it: t0 LOCK sent, t1 OK
// read, t2 UNLOCK sent (after the hold, if any), t3 its OK read (ns on
// the run's clock).
type cycle struct {
	t0, t1, t2, t3 int64
	fence          hierlock.FenceToken
	op             uint16
}

// dialClient connects to a lockd client port, retrying while it starts.
func dialClient(addr string, deadline time.Time) (net.Conn, error) {
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial lockd client port %s: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// roundTrip writes one command line and reads its one-line reply. The
// reply slice is only valid until the next read.
func (c *client) roundTrip(line []byte) ([]byte, error) {
	if _, err := c.w.Write(line); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	reply, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return reply, nil
}

var fenceKey = []byte("fence=")

// parseGrant checks an OK reply to LOCK/LOCKPATH and extracts its fence.
func parseGrant(reply []byte) (hierlock.FenceToken, error) {
	if !bytes.HasPrefix(reply, []byte("OK ")) {
		return hierlock.FenceToken{}, fmt.Errorf("lock refused: %q", bytes.TrimSpace(reply))
	}
	i := bytes.Index(reply, fenceKey)
	if i < 0 {
		return hierlock.FenceToken{}, fmt.Errorf("grant without fence: %q", bytes.TrimSpace(reply))
	}
	return hierlock.ParseFence(string(bytes.TrimSpace(reply[i+len(fenceKey):])))
}

// runCycle performs one lock+unlock of op, keeping the grant for hold
// before the UNLOCK, and records it.
func (c *client) runCycle(op *liveOp, opIdx int, hold time.Duration, clock func() int64) error {
	var cy cycle
	cy.op = uint16(opIdx)
	cy.t0 = clock()
	reply, err := c.roundTrip(op.lock)
	cy.t1 = clock()
	if err != nil {
		return fmt.Errorf("conn %d: %s: %w", c.idx, bytes.TrimSpace(op.lock), err)
	}
	if cy.fence, err = parseGrant(reply); err != nil {
		return fmt.Errorf("conn %d: %s: %w", c.idx, bytes.TrimSpace(op.lock), err)
	}
	if hold > 0 {
		time.Sleep(hold)
	}
	cy.t2 = clock()
	reply, err = c.roundTrip(op.unlock)
	cy.t3 = clock()
	if err != nil {
		return fmt.Errorf("conn %d: %s: %w", c.idx, bytes.TrimSpace(op.unlock), err)
	}
	if !bytes.Equal(bytes.TrimSpace(reply), []byte("OK")) {
		return fmt.Errorf("conn %d: %s: unlock refused: %q", c.idx, bytes.TrimSpace(op.unlock), bytes.TrimSpace(reply))
	}
	c.cycles = append(c.cycles, cy)
	c.progress.Add(1)
	return nil
}

// liveRun is one launched cluster with its two connected clients.
type liveRun struct {
	spec    liveSpec
	cluster *liveCluster
	clients [2]*client
	start   time.Time
	setup   []float64 // seconds, one per launch
}

func (lr *liveRun) clock() int64 { return int64(time.Since(lr.start)) }

// launch starts a cluster and connects both clients, timing from the
// launch to the first grant on every connection.
func launch(spec liveSpec, bin, dir string, rngs [2]*rand.Rand, start time.Time) (*liveCluster, [2]*client, float64, error) {
	var clients [2]*client
	t0 := time.Now()
	cl, err := startCluster(bin, dir, spec)
	if err != nil {
		return nil, clients, 0, err
	}
	clock := func() int64 { return int64(time.Since(start)) }
	errs := make(chan error, 2)
	for i := range clients {
		clients[i] = &client{idx: i, rng: rngs[i]}
		go func(c *client, addr string) {
			deadline := time.Now().Add(setupTimeout)
			conn, err := dialClient(addr, deadline)
			if err != nil {
				errs <- err
				return
			}
			c.conn, c.r, c.w = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
			idx := spec.pick(c.rng)
			if err := conn.SetDeadline(deadline); err != nil {
				errs <- err
				return
			}
			if err := c.runCycle(&spec.ops[idx], idx, 0, clock); err != nil {
				errs <- fmt.Errorf("first grant: %w", err)
				return
			}
			errs <- conn.SetDeadline(time.Time{})
		}(clients[i], cl.members[spec.conns[i]].client)
	}
	for range clients {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	setup := time.Since(t0).Seconds()
	if err == nil {
		err = cl.exitedEarly()
	}
	if err != nil {
		closeClients(clients)
		cl.kill()
		return nil, clients, 0, err
	}
	return cl, clients, setup, nil
}

func closeClients(clients [2]*client) {
	for _, c := range clients {
		if c != nil && c.conn != nil {
			_ = c.conn.Close()
		}
	}
}

// startLive launches the workload's cluster setupRepeats times, keeping
// the last one, and records each launch's set-up time.
func startLive(spec liveSpec, bin, dir string, seed int64) (*liveRun, error) {
	lr := &liveRun{spec: spec, start: time.Now()}
	for i := 0; i < setupRepeats; i++ {
		// Every launch replays the same seeded streams, so each set-up
		// serves the same first requests.
		rngs := [2]*rand.Rand{rand.New(rand.NewSource(seed*2 + 1)), rand.New(rand.NewSource(seed*2 + 2))}
		cl, clients, s, err := launch(spec, bin, filepath.Join(dir, fmt.Sprintf("cluster-%d", i)), rngs, lr.start)
		if err != nil {
			return nil, err
		}
		lr.setup = append(lr.setup, s)
		if i < setupRepeats-1 {
			closeClients(clients)
			cl.kill()
			continue
		}
		for _, c := range clients {
			c.cycles = append(make([]cycle, 0, clientCapacity), c.cycles...)
		}
		lr.cluster, lr.clients = cl, clients
	}
	return lr, nil
}

// drive runs both clients closed-loop until stop is closed. A client
// that fails records why and stops; a client that makes no progress for
// stallAfter has its connection closed, which fails it.
func (lr *liveRun) drive(stop <-chan struct{}) {
	var wg sync.WaitGroup
	for _, c := range lr.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := lr.spec.pick(c.rng)
				var hold time.Duration
				if c.rng.Intn(holdEvery) == 0 {
					hold = holdFor
				}
				if err := c.runCycle(&lr.spec.ops[idx], idx, hold, lr.clock); err != nil {
					c.failures = append(c.failures, err.Error())
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	last := [2]int64{}
	lastMove := [2]time.Time{time.Now(), time.Now()}
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			for i, c := range lr.clients {
				if p := c.progress.Load(); p != last[i] {
					last[i], lastMove[i] = p, time.Now()
				} else if time.Since(lastMove[i]) > stallAfter {
					_ = c.conn.Close()
				}
			}
		}
	}
}

// window is a measured interval on the run's clock.
type window struct{ from, to int64 }

func (w window) duration() time.Duration { return time.Duration(w.to - w.from) }

// liveStats are the end-to-end figures of the cycles within a window,
// over every sample in it.
type liveStats struct {
	cycles                  int
	cyclesPerS              float64
	acqMean, acqP50, acqP99 float64 // µs
	relP50                  float64 // µs
}

func (lr *liveRun) stats(w window) liveStats {
	var acq, rel []float64
	for _, c := range lr.clients {
		for _, cy := range c.cycles {
			if cy.t0 < w.from || cy.t3 > w.to {
				continue
			}
			acq = append(acq, float64(cy.t1-cy.t0)/1e3)
			rel = append(rel, float64(cy.t3-cy.t2)/1e3)
		}
	}
	sort.Float64s(acq)
	sort.Float64s(rel)
	return liveStats{
		cycles:     len(acq),
		cyclesPerS: perSecond(float64(len(acq)), w.duration()),
		acqMean:    mean(acq),
		acqP50:     percentile(acq, 0.50),
		acqP99:     percentile(acq, 0.99),
		relP50:     percentile(rel, 0.50),
	}
}

// holds flattens every recorded cycle for the safety checker.
func (lr *liveRun) holds() []hold {
	var hs []hold
	for _, c := range lr.clients {
		for _, cy := range c.cycles {
			op := &lr.spec.ops[cy.op]
			hs = append(hs, hold{sentAt: cy.t0, okAt: cy.t1, unlockAt: cy.t2, fence: cy.fence, res: op.res, mode: op.mode, conn: uint8(c.idx)})
		}
	}
	return hs
}

func httpGet(addr, path string, timeout time.Duration) ([]byte, int, error) {
	cl := http.Client{Timeout: timeout}
	resp, err := cl.Get("http://" + addr + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// scrape reads every member's /metrics.
func (c *liveCluster) scrape() ([]promSnapshot, error) {
	out := make([]promSnapshot, len(c.members))
	for i, m := range c.members {
		b, code, err := httpGet(m.debug, "/metrics", 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("scrape lockd %d: %w", m.id, err)
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("scrape lockd %d: HTTP %d", m.id, code)
		}
		if out[i], err = parseProm(bytes.NewReader(b)); err != nil {
			return nil, fmt.Errorf("scrape lockd %d: %w", m.id, err)
		}
	}
	return out, nil
}

// profile takes a CPU profile of every member concurrently.
func (c *liveCluster) profile(seconds int) (*cpuBuckets, error) {
	var mu sync.Mutex
	var firstErr error
	var bk cpuBuckets
	var wg sync.WaitGroup
	for _, m := range c.members {
		wg.Add(1)
		go func(m *lockdProc) {
			defer wg.Done()
			b, code, err := httpGet(m.debug, fmt.Sprintf("/debug/pprof/profile?seconds=%d", seconds), time.Duration(seconds+30)*time.Second)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("HTTP %d", code)
			}
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				err = foldProfile(&bk, b)
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("profile lockd %d: %w", m.id, err)
			}
		}(m)
	}
	wg.Wait()
	return &bk, firstErr
}

// checkHealth runs the end-of-run checks on every member: zero audit
// violations, /healthz not stalled, no recovery round. It returns one
// message per failed check.
func (c *liveCluster) checkHealth(final []promSnapshot) []string {
	var bad []string
	for i, m := range c.members {
		b, code, err := httpGet(m.debug, "/debug/audit", 10*time.Second)
		var rep struct {
			Total *int `json:"violations_total"`
		}
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("lockd %d /debug/audit: %v", m.id, err))
		case code != http.StatusOK:
			bad = append(bad, fmt.Sprintf("lockd %d /debug/audit: HTTP %d", m.id, code))
		case json.Unmarshal(b, &rep) != nil || rep.Total == nil:
			bad = append(bad, fmt.Sprintf("lockd %d /debug/audit: unreadable report", m.id))
		case *rep.Total != 0:
			bad = append(bad, fmt.Sprintf("lockd %d: %d audit violations: %s", m.id, *rep.Total, bytes.TrimSpace(b)))
		}
		if _, code, err := httpGet(m.debug, "/healthz", 10*time.Second); err != nil {
			bad = append(bad, fmt.Sprintf("lockd %d /healthz: %v", m.id, err))
		} else if code == http.StatusServiceUnavailable {
			bad = append(bad, fmt.Sprintf("lockd %d /healthz: stalled", m.id))
		}
		if n := final[i].sum("hierlock_recovery_rounds_total", nil); n != 0 {
			bad = append(bad, fmt.Sprintf("lockd %d ran %v recovery rounds", m.id, n))
		}
	}
	return bad
}

// peakRSSMB is the largest VmHWM among the members, in MiB.
func (c *liveCluster) peakRSSMB() (float64, error) {
	var peak float64
	for _, m := range c.members {
		v, err := vmHWM(m.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		peak = max(peak, v)
	}
	return peak, nil
}

// vmHWM reads a process's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak rss: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("peak rss: no VmHWM line")
}
