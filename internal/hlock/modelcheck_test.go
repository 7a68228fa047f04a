package hlock_test

// A bounded explicit-state model checker for the protocol: it explores
// EVERY interleaving of client operations and (per-link FIFO) message
// deliveries for small configurations, checking mutual exclusion and
// token uniqueness in every reachable state and structural consistency in
// every terminal state. Unlike the randomized fuzz, a pass here is a
// proof for the covered configuration.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hierlock/internal/hlock"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// mcPhase tracks each node's progress through its script.
type mcPhase uint8

const (
	mcIdle        mcPhase = iota // not yet requested
	mcWaiting                    // acquire issued, grant pending
	mcHolding                    // inside the critical section
	mcUpgradeWait                // upgrade issued (U scripts with upgrades enabled)
	mcUpgraded                   // holding W after an upgrade
	mcDone                       // released
)

// mcState is one global system state.
type mcState struct {
	engines []*hlock.Engine
	clocks  []*proto.Clock
	// queues are per ordered link, FIFO.
	queues map[[2]proto.NodeID][]proto.Message
	phase  []mcPhase
	// round counts completed acquire/release cycles per node.
	round []int
}

func (s *mcState) clone() *mcState {
	n := len(s.engines)
	ns := &mcState{
		engines: make([]*hlock.Engine, n),
		clocks:  make([]*proto.Clock, n),
		queues:  make(map[[2]proto.NodeID][]proto.Message, len(s.queues)),
		phase:   append([]mcPhase(nil), s.phase...),
		round:   append([]int(nil), s.round...),
	}
	for i := 0; i < n; i++ {
		ns.clocks[i] = s.clocks[i].Clone()
		ns.engines[i] = s.engines[i].Clone(ns.clocks[i])
	}
	for k, q := range s.queues {
		if len(q) > 0 {
			ns.queues[k] = append([]proto.Message(nil), q...)
		}
	}
	return ns
}

// key canonically encodes the state for deduplication. Lamport clock
// values and message timestamps are excluded — the engine never branches
// on them — which collapses behaviorally identical interleavings and
// keeps the search space tractable.
func (s *mcState) key() string {
	var b strings.Builder
	for i, e := range s.engines {
		fmt.Fprintf(&b, "N%d[%s|ph%d|rd%d]", i, e.Fingerprint(), s.phase[i], s.round[i])
	}
	links := make([][2]proto.NodeID, 0, len(s.queues))
	for k, q := range s.queues {
		if len(q) > 0 {
			links = append(links, k)
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for _, k := range links {
		fmt.Fprintf(&b, "L%d-%d:", k[0], k[1])
		for _, m := range s.queues[k] {
			fmt.Fprintf(&b, "%d/%d/%d/%d/%02x/%d;", m.Kind, m.Mode, m.Owned, m.Seq, uint8(m.Frozen), m.Req.Origin)
			fmt.Fprintf(&b, "%d/", m.Req.Mode)
			for _, r := range m.Queue {
				fmt.Fprintf(&b, "q%d:%d,", r.Origin, r.Mode)
			}
		}
	}
	return b.String()
}

// checker explores the state space.
type checker struct {
	t       *testing.T
	script  []modes.Mode // per node: the one mode it acquires then releases
	visited map[string]struct{}
	states  int
	maxQ    int
	limit   int
	// graph records each state's successor keys and which states are
	// terminal, enabling the liveness check (every reachable state can
	// reach a terminal state — no livelocks).
	succ     map[string][]string
	terminal map[string]bool
	// upgrades additionally exercises Rule 7: every U holder upgrades to
	// W before releasing.
	upgrades bool
	// rounds is how many acquire/release cycles each node performs
	// (default 1). Higher values exercise re-acquisition: message-free
	// local acquires, reversal reuse, copyset rebuilding.
	rounds int
}

// roundsWanted returns the configured rounds (default 1).
func (c *checker) roundsWanted() int {
	if c.rounds <= 0 {
		return 1
	}
	return c.rounds
}

func (c *checker) fail(s *mcState, format string, args ...interface{}) {
	c.t.Helper()
	var b strings.Builder
	for i, e := range s.engines {
		fmt.Fprintf(&b, "  node %d phase %d: %v\n", i, s.phase[i], e)
	}
	for k, q := range s.queues {
		for _, m := range q {
			fmt.Fprintf(&b, "  in flight %d→%d: %v mode=%v req=%+v\n", k[0], k[1], m.Kind, m.Mode, m.Req)
		}
	}
	c.t.Fatalf(format+"\nscript %v\nstate:\n%s", append(args, c.script, b.String())...)
}

// safety checks invariants that must hold in EVERY reachable state.
func (c *checker) safety(s *mcState) {
	c.t.Helper()
	// Mutual exclusion: held modes pairwise compatible.
	for i, a := range s.engines {
		if a.Held() == modes.None {
			continue
		}
		for j, b := range s.engines {
			if i < j && b.Held() != modes.None && !modes.Compatible(a.Held(), b.Held()) {
				c.fail(s, "MUTUAL EXCLUSION: node %d holds %v, node %d holds %v", i, a.Held(), j, b.Held())
			}
		}
	}
	// Token uniqueness: exactly one token, resident or in flight.
	tokens := 0
	for _, e := range s.engines {
		if e.IsToken() {
			tokens++
		}
	}
	for _, q := range s.queues {
		for _, m := range q {
			if m.Kind == proto.KindToken {
				tokens++
			}
		}
	}
	if tokens != 1 {
		c.fail(s, "TOKEN COUNT = %d", tokens)
	}
}

// checkTerminal checks invariants of quiescent final states.
func (c *checker) checkTerminal(s *mcState) {
	c.t.Helper()
	for i := range s.engines {
		if s.phase[i] != mcDone {
			c.fail(s, "node %d never completed (phase %d)", i, s.phase[i])
		}
	}
	for i, e := range s.engines {
		if e.Held() != modes.None || e.Pending() != modes.None || e.QueueLen() != 0 {
			c.fail(s, "node %d not quiescent", i)
		}
		for child, m := range e.Children() {
			if got := s.engines[child].Owned(); got != m {
				c.fail(s, "node %d records child %d owning %v but it owns %v", i, child, m, got)
			}
		}
	}
}

// explore runs DFS from s over all enabled actions.
func (c *checker) explore(s *mcState) {
	c.t.Helper()
	k := s.key()
	if _, seen := c.visited[k]; seen {
		return
	}
	c.visited[k] = struct{}{}
	c.states++
	if c.states > c.limit {
		c.t.Fatalf("state-space limit exceeded (%d states) for script %v", c.limit, c.script)
	}
	c.safety(s)

	acted := false
	step := func(mutate func(ns *mcState) bool) {
		acted = true
		ns := s.clone()
		for _, e := range ns.engines {
			if err := e.CheckCounters(); err != nil {
				c.fail(ns, "clone: %v", err)
			}
		}
		if mutate(ns) {
			if c.succ != nil {
				c.succ[k] = append(c.succ[k], ns.key())
			}
			c.explore(ns)
		}
	}

	// Client actions.
	for i := range s.engines {
		i := i
		switch s.phase[i] {
		case mcIdle:
			step(func(ns *mcState) bool {
				ns.phase[i] = mcWaiting
				out, err := ns.engines[i].Acquire(c.script[i])
				if err != nil {
					c.fail(ns, "Acquire: %v", err)
				}
				c.absorb(ns, proto.NodeID(i), out)
				return true
			})
		case mcHolding:
			if c.upgrades && c.script[i] == modes.U {
				step(func(ns *mcState) bool {
					ns.phase[i] = mcUpgradeWait
					out, err := ns.engines[i].Upgrade()
					if err != nil {
						c.fail(ns, "Upgrade: %v", err)
					}
					c.absorb(ns, proto.NodeID(i), out)
					return true
				})
				break
			}
			step(func(ns *mcState) bool {
				ns.round[i]++
				ns.phase[i] = mcDone
				if ns.round[i] < c.roundsWanted() {
					ns.phase[i] = mcIdle
				}
				out, err := ns.engines[i].Release()
				if err != nil {
					c.fail(ns, "Release: %v", err)
				}
				c.absorb(ns, proto.NodeID(i), out)
				return true
			})
		case mcUpgraded:
			step(func(ns *mcState) bool {
				ns.round[i]++
				ns.phase[i] = mcDone
				if ns.round[i] < c.roundsWanted() {
					ns.phase[i] = mcIdle
				}
				if got := ns.engines[i].Held(); got != modes.W {
					c.fail(ns, "node %d upgraded but holds %v", i, got)
				}
				out, err := ns.engines[i].Release()
				if err != nil {
					c.fail(ns, "Release after upgrade: %v", err)
				}
				c.absorb(ns, proto.NodeID(i), out)
				return true
			})
		}
	}
	// Deliveries: the head of every nonempty link.
	for k, q := range s.queues {
		if len(q) == 0 {
			continue
		}
		k := k
		step(func(ns *mcState) bool {
			msg := ns.queues[k][0]
			ns.queues[k] = ns.queues[k][1:]
			if len(ns.queues[k]) == 0 {
				delete(ns.queues, k)
			}
			out, err := ns.engines[msg.To].Handle(&msg)
			if err != nil {
				c.fail(ns, "Handle(%v %d→%d): %v", msg.Kind, msg.From, msg.To, err)
			}
			c.absorb(ns, msg.To, out)
			return true
		})
	}

	if !acted {
		c.checkTerminal(s)
		if c.terminal != nil {
			c.terminal[k] = true
		}
	}
}

// checkLiveness verifies that every explored state can reach a terminal
// state: a violation would be a livelock (states cycling forever with no
// way to complete). Call after explore with succ/terminal enabled.
func (c *checker) checkLiveness() {
	c.t.Helper()
	// Backward reachability: start from terminal states, walk predecessor
	// edges. Build the reverse adjacency first.
	pred := make(map[string][]string, len(c.succ))
	for from, tos := range c.succ {
		for _, to := range tos {
			pred[to] = append(pred[to], from)
		}
	}
	reach := make(map[string]bool, len(c.visited))
	var stack []string
	for k := range c.terminal {
		reach[k] = true
		stack = append(stack, k)
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pred[k] {
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	dead := 0
	for k := range c.visited {
		if !reach[k] {
			dead++
		}
	}
	if dead > 0 {
		c.t.Fatalf("LIVELOCK: %d of %d states cannot reach any terminal state (script %v)",
			dead, len(c.visited), c.script)
	}
}

// absorb routes a step's output into the state.
func (c *checker) absorb(s *mcState, node proto.NodeID, out hlock.Out) {
	c.t.Helper()
	if err := s.engines[node].CheckCounters(); err != nil {
		c.fail(s, "%v", err)
	}
	for _, m := range out.Msgs {
		key := [2]proto.NodeID{m.From, m.To}
		s.queues[key] = append(s.queues[key], m)
		if len(s.queues[key]) > c.maxQ {
			c.maxQ = len(s.queues[key])
		}
	}
	for _, ev := range out.Events {
		switch ev.Kind {
		case hlock.EventAcquired:
			if s.phase[node] != mcWaiting {
				c.fail(s, "node %d granted in phase %d", node, s.phase[node])
			}
			s.phase[node] = mcHolding
		case hlock.EventUpgraded:
			if s.phase[node] != mcUpgradeWait {
				c.fail(s, "node %d upgraded in phase %d", node, s.phase[node])
			}
			s.phase[node] = mcUpgraded
		}
	}
}

func newMCState(n int, opt hlock.Options) *mcState {
	s := &mcState{
		engines: make([]*hlock.Engine, n),
		clocks:  make([]*proto.Clock, n),
		queues:  make(map[[2]proto.NodeID][]proto.Message),
		phase:   make([]mcPhase, n),
		round:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		s.clocks[i] = &proto.Clock{}
		s.engines[i] = hlock.New(proto.NodeID(i), testLock, 0, i == 0, s.clocks[i], opt)
	}
	return s
}

// TestModelCheckPairs exhaustively explores every interleaving for every
// ordered mode pair on two nodes.
func TestModelCheckPairs(t *testing.T) {
	for _, m0 := range modes.All {
		for _, m1 := range modes.All {
			m0, m1 := m0, m1
			t.Run(fmt.Sprintf("%v-%v", m0, m1), func(t *testing.T) {
				c := &checker{
					t:       t,
					script:  []modes.Mode{m0, m1},
					visited: make(map[string]struct{}),
					limit:   2_000_000,
				}
				c.explore(newMCState(2, hlock.Options{}))
				t.Logf("explored %d states", c.states)
			})
		}
	}
}

// TestModelCheckTriples explores all interleavings for three nodes over a
// representative set of mode triples (the full 125-triple product at
// three nodes is explored in -short=false runs of the heavy test below).
func TestModelCheckTriples(t *testing.T) {
	triples := [][]modes.Mode{
		{modes.W, modes.W, modes.W},    // maximal token movement
		{modes.IR, modes.R, modes.W},   // mixed compatibility
		{modes.IW, modes.R, modes.IW},  // freeze-triggering conflict
		{modes.U, modes.R, modes.IR},   // upgrade-class exclusivity
		{modes.U, modes.U, modes.W},    // competing upgrades
		{modes.IR, modes.IR, modes.IR}, // all-compatible
		{modes.R, modes.IW, modes.U},   // pairwise conflicts
		{modes.W, modes.IR, modes.U},
	}
	for _, script := range triples {
		script := script
		t.Run(fmt.Sprintf("%v", script), func(t *testing.T) {
			c := &checker{
				t:       t,
				script:  script,
				visited: make(map[string]struct{}),
				limit:   5_000_000,
			}
			c.explore(newMCState(3, hlock.Options{}))
			t.Logf("explored %d states (max link queue %d)", c.states, c.maxQ)
		})
	}
}

// TestModelCheckAllTriples is the heavyweight exhaustive sweep over all
// 125 mode triples on three nodes.
func TestModelCheckAllTriples(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	total := 0
	for _, m0 := range modes.All {
		for _, m1 := range modes.All {
			for _, m2 := range modes.All {
				c := &checker{
					t:       t,
					script:  []modes.Mode{m0, m1, m2},
					visited: make(map[string]struct{}),
					limit:   5_000_000,
				}
				c.explore(newMCState(3, hlock.Options{}))
				total += c.states
			}
		}
	}
	t.Logf("explored %d states across 125 triples", total)
}

// TestModelCheckQuads explores every interleaving for four nodes over
// representative mode quadruples.
func TestModelCheckQuads(t *testing.T) {
	quads := [][]modes.Mode{
		{modes.W, modes.W, modes.W, modes.W},
		{modes.IR, modes.R, modes.IW, modes.W},
		{modes.IW, modes.R, modes.IW, modes.R},
		{modes.U, modes.R, modes.IR, modes.W},
		{modes.IR, modes.IR, modes.W, modes.IR},
		{modes.U, modes.U, modes.IW, modes.R},
	}
	for _, script := range quads {
		script := script
		t.Run(fmt.Sprintf("%v", script), func(t *testing.T) {
			c := &checker{
				t:       t,
				script:  script,
				visited: make(map[string]struct{}),
				limit:   8_000_000,
			}
			c.explore(newMCState(4, hlock.Options{}))
			t.Logf("explored %d states (max link queue %d)", c.states, c.maxQ)
		})
	}
}

// TestModelCheckUpgrades explores every interleaving of upgrade flows:
// each U script acquires U, upgrades to W, and only then releases, with
// readers and writers interleaved arbitrarily.
func TestModelCheckUpgrades(t *testing.T) {
	scripts := [][]modes.Mode{
		{modes.U, modes.R},
		{modes.U, modes.IR},
		{modes.U, modes.W},
		{modes.U, modes.U},
		{modes.U, modes.R, modes.IR},
		{modes.U, modes.R, modes.R},
		{modes.U, modes.U, modes.R},
		{modes.U, modes.IW, modes.IR},
	}
	for _, script := range scripts {
		script := script
		t.Run(fmt.Sprintf("%v", script), func(t *testing.T) {
			c := &checker{
				t:        t,
				script:   script,
				visited:  make(map[string]struct{}),
				limit:    5_000_000,
				upgrades: true,
			}
			c.explore(newMCState(len(script), hlock.Options{}))
			t.Logf("explored %d states", c.states)
		})
	}
}

// TestModelCheckNoReversalVariant model-checks the strict-tables variant.
func TestModelCheckNoReversalVariant(t *testing.T) {
	for _, script := range [][]modes.Mode{
		{modes.W, modes.R, modes.IW},
		{modes.U, modes.IW, modes.R},
	} {
		script := script
		t.Run(fmt.Sprintf("%v", script), func(t *testing.T) {
			c := &checker{
				t:       t,
				script:  script,
				visited: make(map[string]struct{}),
				limit:   5_000_000,
			}
			c.explore(newMCState(3, hlock.Options{NoPathReversal: true}))
			t.Logf("explored %d states", c.states)
		})
	}
}

// TestModelCheckTwoRounds explores every interleaving of two full
// acquire/release cycles per node, covering re-acquisition paths:
// message-free local acquires, reversal reuse and copyset rebuilding.
func TestModelCheckTwoRounds(t *testing.T) {
	scripts := [][]modes.Mode{
		{modes.W, modes.W},
		{modes.R, modes.IW},
		{modes.IR, modes.W},
		{modes.U, modes.R},
		{modes.IR, modes.R, modes.IW},
		{modes.W, modes.IR, modes.R},
	}
	for _, script := range scripts {
		script := script
		t.Run(fmt.Sprintf("%v", script), func(t *testing.T) {
			c := &checker{
				t:       t,
				script:  script,
				visited: make(map[string]struct{}),
				limit:   8_000_000,
				rounds:  2,
			}
			c.explore(newMCState(len(script), hlock.Options{}))
			t.Logf("explored %d states", c.states)
		})
	}
}

// TestModelCheckLiveness re-explores representative scripts with the
// state graph recorded and verifies no livelock exists: every reachable
// state has a path to completion.
func TestModelCheckLiveness(t *testing.T) {
	scripts := [][]modes.Mode{
		{modes.W, modes.W, modes.W},
		{modes.IW, modes.R, modes.IW},
		{modes.U, modes.R, modes.IR},
		{modes.IR, modes.R, modes.W},
		{modes.U, modes.U, modes.W},
	}
	for _, script := range scripts {
		script := script
		t.Run(fmt.Sprintf("%v", script), func(t *testing.T) {
			c := &checker{
				t:        t,
				script:   script,
				visited:  make(map[string]struct{}),
				limit:    5_000_000,
				succ:     make(map[string][]string),
				terminal: make(map[string]bool),
			}
			c.explore(newMCState(len(script), hlock.Options{}))
			c.checkLiveness()
			t.Logf("liveness verified over %d states (%d terminal)", c.states, len(c.terminal))
		})
	}
}
