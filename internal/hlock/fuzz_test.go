package hlock_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hierlock/internal/hlock"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// fuzzConfig parameterizes one randomized protocol exploration.
type fuzzConfig struct {
	nodes int
	steps int
	opt   hlock.Options
	// mix weights for IR, R, U, IW, W (the paper's workload uses
	// 80/10/4/5/1).
	mix [5]int
	// usePriorities draws a random priority in [0, maxPriority] per
	// request (exercising the prioritized-arbitration extension).
	usePriorities bool
	maxPriority   int
}

// runFuzz drives random client operations interleaved with random (but
// per-pair FIFO) message deliveries, checking the mutual-exclusion oracle
// on every acquisition and full structural consistency at quiescence.
// Upgrades are exercised whenever a node holds U.
func runFuzz(t *testing.T, seed int64, cfg fuzzConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := newHarness(t, cfg.nodes, cfg.opt)

	pick := func() modes.Mode {
		total := 0
		for _, w := range cfg.mix {
			total += w
		}
		r := rng.Intn(total)
		for i, w := range cfg.mix {
			if r < w {
				return modes.All[i]
			}
			r -= w
		}
		return modes.IR
	}

	// upgrading tracks nodes that issued an Upgrade (their EventUpgraded
	// is pending).
	upgrading := map[proto.NodeID]bool{}

	for step := 0; step < cfg.steps; step++ {
		// Prefer delivering messages slightly over issuing ops so queues
		// do not grow without bound.
		pairs := h.pendingPairs()
		if len(pairs) > 0 && rng.Intn(100) < 60 {
			h.deliverOne(pairs[rng.Intn(len(pairs))])
			continue
		}
		id := proto.NodeID(rng.Intn(cfg.nodes))
		e := h.engines[id]
		switch {
		case e.Held() == modes.U && !upgrading[id] && rng.Intn(100) < 50:
			upgrading[id] = true
			h.upgrade(int(id))
		case e.Held() != modes.None && e.Pending() == modes.None && rng.Intn(100) < 70:
			delete(upgrading, id)
			h.release(int(id))
		case e.Held() == modes.None && e.Pending() == modes.None && rng.Intn(100) < 70:
			prio := uint8(0)
			if cfg.usePriorities {
				prio = uint8(rng.Intn(cfg.maxPriority + 1))
			}
			h.acquirePri(int(id), pick(), prio)
		}
	}

	h.settle(rng, fmt.Sprintf("seed %d", seed))
}

func TestFuzzPaperMix(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runFuzz(t, seed, fuzzConfig{
				nodes: 8, steps: 2500,
				mix: [5]int{80, 10, 4, 5, 1},
			})
		})
	}
}

func TestFuzzWriteHeavy(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runFuzz(t, seed, fuzzConfig{
				nodes: 6, steps: 2000,
				mix: [5]int{10, 15, 20, 20, 35},
			})
		})
	}
}

func TestFuzzUpgradeHeavy(t *testing.T) {
	for seed := int64(200); seed < 210; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runFuzz(t, seed, fuzzConfig{
				nodes: 5, steps: 1500,
				mix: [5]int{20, 20, 40, 10, 10},
			})
		})
	}
}

func TestFuzzManyNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(300); seed < 306; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runFuzz(t, seed, fuzzConfig{
				nodes: 24, steps: 6000,
				mix: [5]int{60, 15, 5, 15, 5},
			})
		})
	}
}

func TestFuzzAblations(t *testing.T) {
	opts := map[string]hlock.Options{
		"no-local-queues":   {NoLocalQueues: true},
		"no-child-grants":   {NoChildGrants: true},
		"no-local-acquire":  {NoLocalAcquire: true},
		"no-path-reversal":  {NoPathReversal: true},
		"paper-tables-only": {NoPathReversal: true, NoFreezing: true},
		"all-off":           {NoLocalQueues: true, NoChildGrants: true, NoLocalAcquire: true},
	}
	for name, opt := range opts {
		opt := opt
		t.Run(name, func(t *testing.T) {
			for seed := int64(400); seed < 408; seed++ {
				runFuzz(t, seed, fuzzConfig{
					nodes: 7, steps: 2000, opt: opt,
					mix: [5]int{50, 20, 10, 15, 5},
				})
			}
		})
	}
}

// TestFuzzNoFreezing checks that the safety properties hold even without
// fairness (freezing off): mutual exclusion and eventual quiescence are
// independent of Rule 6. (Liveness under continuous load is NOT guaranteed
// by this configuration — that is the point of the ablation — but once
// load stops, everything must drain.)
func TestFuzzNoFreezing(t *testing.T) {
	for seed := int64(500); seed < 510; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runFuzz(t, seed, fuzzConfig{
				nodes: 7, steps: 2000,
				opt: hlock.Options{NoFreezing: true},
				mix: [5]int{50, 20, 10, 15, 5},
			})
		})
	}
}

// fuzzOptions are the protocol variants FuzzEngine picks from: the full
// protocol and the ablations the seeded fuzz tests cover.
var fuzzOptions = []hlock.Options{
	{},
	{NoLocalQueues: true},
	{NoChildGrants: true},
	{NoLocalAcquire: true},
	{NoPathReversal: true},
	{NoFreezing: true},
	{NoPathReversal: true, NoFreezing: true},
	{NoLocalQueues: true, NoChildGrants: true, NoLocalAcquire: true},
}

// FuzzEngine drives the harness from a byte stream. The config byte
// picks the node count (2–7) and the protocol variant; the stream is
// then read in (op, arg) pairs. An even op delivers the head message of
// pending link arg; an odd op issues the next client operation at node
// arg — upgrade a held U (when op bit 1 is set), release a hold, or
// acquire mode op>>2 (mod 5), at priority op>>5 under the full protocol.
// Every step runs the mutual-exclusion oracle and the copyset counter
// check; the end state must settle to structural consistency.
//
//	go test -run '^$' -fuzz FuzzEngine ./internal/hlock
func FuzzEngine(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2*len(fuzzOptions); i++ {
		ops := make([]byte, 64+rng.Intn(512))
		rng.Read(ops)
		f.Add(byte(i%len(fuzzOptions)*6+i%6), ops)
	}
	f.Fuzz(func(t *testing.T, cfg byte, ops []byte) {
		const maxSteps = 4096
		n := 2 + int(cfg%6)
		opt := fuzzOptions[int(cfg/6)%len(fuzzOptions)]
		h := newHarness(t, n, opt)
		upgrading := map[proto.NodeID]bool{}
		for step := 0; step < maxSteps && len(ops) >= 2; step++ {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			if op&1 == 0 {
				if pairs := h.pendingPairs(); len(pairs) > 0 {
					h.deliverOne(pairs[int(arg)%len(pairs)])
				}
				continue
			}
			id := proto.NodeID(int(arg) % n)
			e := h.engines[id]
			switch {
			case e.Held() == modes.U && !upgrading[id] && op&2 != 0:
				upgrading[id] = true
				h.upgrade(int(id))
			case e.Held() != modes.None && e.Pending() == modes.None:
				delete(upgrading, id)
				h.release(int(id))
			case e.Held() == modes.None && e.Pending() == modes.None:
				prio := uint8(0)
				if opt == (hlock.Options{}) {
					prio = op >> 5
				}
				h.acquirePri(int(id), modes.All[int(op>>2)%len(modes.All)], prio)
			}
		}
		h.settle(nil, fmt.Sprintf("config %d", cfg))
	})
}
