package hlock_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hierlock/internal/hlock"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// harness wires engines together with per-ordered-pair FIFO queues, the
// delivery guarantee the protocol assumes (DESIGN.md). Delivery order
// *across* pairs is controlled by the test: deterministic (lowest pair
// first) or randomized by a seeded RNG.
type harness struct {
	t       testing.TB
	engines map[proto.NodeID]*hlock.Engine
	clocks  map[proto.NodeID]*proto.Clock
	queues  map[[2]proto.NodeID][]proto.Message
	events  map[proto.NodeID][]hlock.Event
	counts  map[proto.Kind]int

	// oracle state: modes currently held, from the client's perspective.
	holding map[proto.NodeID]modes.Mode
	// outstanding acquire/upgrade operations not yet confirmed.
	waiting map[proto.NodeID]modes.Mode

	verbose bool
}

const testLock proto.LockID = 1

// newHarness builds n nodes; node 0 holds the token and every other node's
// initial parent is node 0 (the star topology the paper starts from).
func newHarness(t testing.TB, n int, opt hlock.Options) *harness {
	t.Helper()
	h := &harness{
		t:       t,
		engines: make(map[proto.NodeID]*hlock.Engine, n),
		clocks:  make(map[proto.NodeID]*proto.Clock, n),
		queues:  make(map[[2]proto.NodeID][]proto.Message),
		events:  make(map[proto.NodeID][]hlock.Event),
		counts:  make(map[proto.Kind]int),
		holding: make(map[proto.NodeID]modes.Mode),
		waiting: make(map[proto.NodeID]modes.Mode),
	}
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		clk := &proto.Clock{}
		h.clocks[id] = clk
		h.engines[id] = hlock.New(id, testLock, 0, i == 0, clk, opt)
	}
	return h
}

func (h *harness) node(i int) *hlock.Engine { return h.engines[proto.NodeID(i)] }

// absorb routes an engine step's output into the network and the oracle,
// after checking the stepped engine's copyset counters.
func (h *harness) absorb(from proto.NodeID, out hlock.Out) {
	h.t.Helper()
	if err := h.engines[from].CheckCounters(); err != nil {
		h.t.Fatal(err)
	}
	for _, m := range out.Msgs {
		h.counts[m.Kind]++
		key := [2]proto.NodeID{m.From, m.To}
		h.queues[key] = append(h.queues[key], m)
	}
	for _, ev := range out.Events {
		if h.verbose {
			fmt.Printf("    node %d: event %v mode=%v local=%v\n", from, ev.Kind, ev.Mode, ev.Local)
		}
		h.events[from] = append(h.events[from], ev)
		switch ev.Kind {
		case hlock.EventAcquired, hlock.EventUpgraded:
			want, ok := h.waiting[from]
			if !ok {
				h.t.Fatalf("node %d: %v event with no outstanding op", from, ev.Kind)
			}
			if ev.Mode != want {
				h.t.Fatalf("node %d: event mode %v, wanted %v", from, ev.Mode, want)
			}
			delete(h.waiting, from)
			h.holding[from] = ev.Mode
			h.checkCompatible()
		}
	}
}

// checkCompatible is the safety oracle: all concurrently held modes must be
// pairwise compatible (Rule 1).
func (h *harness) checkCompatible() {
	h.t.Helper()
	for a, ma := range h.holding {
		for b, mb := range h.holding {
			if a < b && !modes.Compatible(ma, mb) {
				h.t.Fatalf("MUTUAL EXCLUSION VIOLATED: node %d holds %v while node %d holds %v", a, ma, b, mb)
			}
		}
	}
}

// acquire issues a client acquire at node i.
func (h *harness) acquire(i int, m modes.Mode) {
	h.t.Helper()
	h.acquirePri(i, m, 0)
}

// acquirePri issues a prioritized acquire at node i.
func (h *harness) acquirePri(i int, m modes.Mode, prio uint8) {
	h.t.Helper()
	id := proto.NodeID(i)
	h.waiting[id] = m
	out, err := h.engines[id].AcquirePri(m, prio)
	if err != nil {
		h.t.Fatalf("node %d: Acquire(%v): %v", i, m, err)
	}
	h.absorb(id, out)
}

func (h *harness) release(i int) {
	h.t.Helper()
	id := proto.NodeID(i)
	delete(h.holding, id)
	out, err := h.engines[id].Release()
	if err != nil {
		h.t.Fatalf("node %d: Release: %v", i, err)
	}
	h.absorb(id, out)
}

func (h *harness) upgrade(i int) {
	h.t.Helper()
	id := proto.NodeID(i)
	h.waiting[id] = modes.W
	out, err := h.engines[id].Upgrade()
	if err != nil {
		h.t.Fatalf("node %d: Upgrade: %v", i, err)
	}
	h.absorb(id, out)
}

// pendingPairs returns the ordered pairs with undelivered messages,
// deterministically sorted.
func (h *harness) pendingPairs() [][2]proto.NodeID {
	var pairs [][2]proto.NodeID
	for k, q := range h.queues {
		if len(q) > 0 {
			pairs = append(pairs, k)
		}
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && less(pairs[j], pairs[j-1]); j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	return pairs
}

func less(a, b [2]proto.NodeID) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// deliverOne delivers the head message of the given pair queue.
func (h *harness) deliverOne(pair [2]proto.NodeID) {
	h.t.Helper()
	q := h.queues[pair]
	msg := q[0]
	h.queues[pair] = q[1:]
	out, err := h.engines[msg.To].Handle(&msg)
	if err != nil {
		h.t.Fatalf("node %d: Handle(%v from %d): %v\n%v", msg.To, msg.Kind, msg.From, err, h.engines[msg.To])
	}
	h.absorb(msg.To, out)
}

// drain delivers messages (deterministic pair order, or rng-shuffled when
// rng != nil) until the network is quiet.
func (h *harness) drain(rng *rand.Rand) {
	h.t.Helper()
	for steps := 0; ; steps++ {
		if steps > 100000 {
			h.t.Fatal("network did not quiesce")
		}
		pairs := h.pendingPairs()
		if len(pairs) == 0 {
			return
		}
		p := pairs[0]
		if rng != nil {
			p = pairs[rng.Intn(len(pairs))]
		}
		h.deliverOne(p)
	}
}

// settle winds the system down — deliver everything, release every
// holder, repeat until every request completed and the network is
// silent — then checks structural consistency. what labels failures.
func (h *harness) settle(rng *rand.Rand, what string) {
	h.t.Helper()
	for round := 0; ; round++ {
		if round > 10*len(h.engines)+100 {
			h.t.Fatalf("%s: system did not quiesce; waiting=%v\n%s", what, h.waiting, h.dump())
		}
		h.drain(rng)
		released := false
		for id, e := range h.engines {
			if e.Held() != modes.None && e.Pending() == modes.None {
				h.release(int(id))
				released = true
			}
		}
		if !released && len(h.pendingPairs()) == 0 {
			break
		}
	}
	if len(h.waiting) > 0 {
		h.t.Fatalf("%s: requests never served: %v\n%s", what, h.waiting, h.dump())
	}
	h.checkQuiescent()
}

// held returns the mode node i currently holds per its engine.
func (h *harness) held(i int) modes.Mode { return h.node(i).Held() }

// requireToken asserts exactly one engine holds the token and returns it.
func (h *harness) requireToken() proto.NodeID {
	h.t.Helper()
	tok := proto.NoNode
	for id, e := range h.engines {
		if e.IsToken() {
			if tok != proto.NoNode {
				h.t.Fatalf("two token nodes: %d and %d", tok, id)
			}
			tok = id
		}
	}
	if tok == proto.NoNode {
		h.t.Fatal("no token node")
	}
	return tok
}

// checkQuiescent asserts full structural consistency once the network is
// drained and no client operation is outstanding.
func (h *harness) checkQuiescent() {
	h.t.Helper()
	tok := h.requireToken()
	for id, e := range h.engines {
		if err := e.CheckCounters(); err != nil {
			h.t.Error(err)
		}
		if m, ok := h.waiting[id]; ok {
			h.t.Errorf("node %d: request for %v never completed: %v", id, m, e)
		}
		if e.Held() != h.holding[id] {
			h.t.Errorf("node %d: engine holds %v, oracle says %v", id, e.Held(), h.holding[id])
		}
		// Copyset soundness: a parent's recorded mode for each child must
		// equal the child's actual owned mode.
		for c, m := range e.Children() {
			if got := h.engines[c].Owned(); got != m {
				h.t.Errorf("node %d records child %d owning %v, child actually owns %v", id, c, m, got)
			}
		}
		if id != tok && e.Parent() == proto.NoNode {
			h.t.Errorf("non-token node %d has no parent", id)
		}
	}
	// The token's owned mode must dominate and be compatible with every
	// held mode (the paper's local-knowledge lemma preconditions).
	mo := h.engines[tok].Owned()
	for id, m := range h.holding {
		if m == modes.None {
			continue
		}
		if !modes.AtLeast(mo, m) {
			h.t.Errorf("token owns %v which does not dominate node %d holding %v", mo, id, m)
		}
	}
	// Parent pointers must form a cycle-free forest rooted at the token.
	for id := range h.engines {
		seen := map[proto.NodeID]bool{}
		cur := id
		for cur != proto.NoNode {
			if seen[cur] {
				h.t.Fatalf("parent cycle involving node %d", cur)
			}
			seen[cur] = true
			cur = h.engines[cur].Parent()
		}
		if !seen[tok] {
			h.t.Errorf("node %d's parent chain does not reach the token node %d", id, tok)
		}
	}
	// When nothing is queued anywhere, nothing may remain frozen within
	// the copyset.
	queued := 0
	for _, e := range h.engines {
		queued += e.QueueLen()
	}
	if queued == 0 {
		for id, e := range h.engines {
			if e.Owned() != modes.None && !e.Frozen().Empty() {
				h.t.Errorf("node %d owns %v with stale frozen set %v", id, e.Owned(), e.Frozen())
			}
		}
	}
}

func (h *harness) dump() string {
	s := ""
	for i := 0; i < len(h.engines); i++ {
		s += fmt.Sprintf("  %v\n", h.node(i))
	}
	return s
}
