package cluster_test

import (
	"strings"
	"testing"
	"time"

	"hierlock/internal/cluster"
	"hierlock/internal/introspect"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// The client-level deadlock tests read the simulator's wait-for graph
// from Cluster.Inventory, the same introspect.BuildWaitFor analysis
// `lockctl locks --cluster` runs over live members.

// TestDetectDeadlockOppositeOrder induces the textbook client deadlock:
// two nodes acquire two exclusive locks in opposite orders.
func TestDetectDeadlockOppositeOrder(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{1, 2},
		Seed:     41,
	})
	// Node 1: lock 1 then lock 2. Node 2: lock 2 then lock 1.
	c.Nodes[1].Acquire(1, modes.W, func() {
		c.Nodes[1].Acquire(2, modes.W, func() {})
	})
	c.Nodes[2].Acquire(2, modes.W, func() {
		c.Nodes[2].Acquire(1, modes.W, func() {})
	})
	c.Sim.Run(time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Quiesced() {
		t.Fatal("expected the cluster to be stuck, not quiesced")
	}
	inv := c.Inventory()
	dl := inv.WaitFor.Cycles
	if len(dl) != 1 {
		t.Fatalf("deadlocks = %v, want exactly one cycle", dl)
	}
	if len(dl[0]) != 2 {
		t.Fatalf("cycle = %v, want the 2-node cycle", dl[0])
	}
	if out := introspect.FormatCluster(inv); !strings.Contains(out, "DEADLOCK: 1 -> 2 -> 1") {
		t.Fatalf("cycle must render:\n%s", out)
	}
}

// TestNoFalseDeadlocks checks that ordinary waiting (queued behind a
// holder, no cycle) is not reported.
func TestNoFalseDeadlocks(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{1},
		Seed:     42,
	})
	c.Nodes[1].Acquire(1, modes.W, func() {})
	c.Sim.Run(5 * time.Second)
	c.Nodes[2].Acquire(1, modes.W, func() {}) // waits behind node 1
	c.Sim.Run(5 * time.Second)
	if dl := c.Inventory().WaitFor.Cycles; len(dl) != 0 {
		t.Fatalf("false deadlock reported: %v", dl)
	}
	// Compatible waiting is not even an edge.
	c.Nodes[0].Acquire(1, modes.IR, func() {})
	c.Sim.Run(5 * time.Second)
	if dl := c.Inventory().WaitFor.Cycles; len(dl) != 0 {
		t.Fatalf("false deadlock on compatible wait: %v", dl)
	}
}

// TestDetectThreeWayDeadlock induces a 3-cycle.
func TestDetectThreeWayDeadlock(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    4,
		Locks:    []proto.LockID{1, 2, 3},
		Seed:     43,
	})
	// 1 holds L1 waits L2; 2 holds L2 waits L3; 3 holds L3 waits L1.
	c.Nodes[1].Acquire(1, modes.W, func() { c.Nodes[1].Acquire(2, modes.W, func() {}) })
	c.Nodes[2].Acquire(2, modes.W, func() { c.Nodes[2].Acquire(3, modes.W, func() {}) })
	c.Nodes[3].Acquire(3, modes.W, func() { c.Nodes[3].Acquire(1, modes.W, func() {}) })
	c.Sim.Run(time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	dl := c.Inventory().WaitFor.Cycles
	if len(dl) != 1 || len(dl[0]) != 3 {
		t.Fatalf("deadlocks = %v, want one 3-cycle", dl)
	}
	if cyc := dl[0]; cyc[0] != 1 || cyc[1] != 2 || cyc[2] != 3 {
		t.Fatalf("cycle = %v, want canonical [1 2 3]", cyc)
	}
}

// TestOrderedAcquisitionAvoidsDeadlock shows the avoidance discipline the
// paper uses for Naimi "same work": both nodes take the locks in the same
// order, so both complete.
func TestOrderedAcquisitionAvoidsDeadlock(t *testing.T) {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Hierarchical,
		Nodes:    3,
		Locks:    []proto.LockID{1, 2},
		Seed:     44,
	})
	completed := 0
	both := func(n int) {
		c.Nodes[n].Acquire(1, modes.W, func() {
			c.Nodes[n].Acquire(2, modes.W, func() {
				completed++
				c.Nodes[n].Release(2)
				c.Nodes[n].Release(1)
			})
		})
	}
	both(1)
	both(2)
	c.Sim.Run(time.Minute)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if completed != 2 {
		t.Fatalf("completed = %d, want 2", completed)
	}
	if dl := c.Inventory().WaitFor.Cycles; len(dl) != 0 {
		t.Fatalf("unexpected deadlock: %v", dl)
	}
	if !c.Quiesced() {
		t.Fatal("not quiesced")
	}
}
