//go:build !race

package cluster_test

// Allocation regression test for the simulated network's pooled
// deliveries. The race detector instruments allocations and defeats
// testing.AllocsPerRun, so this is compiled out under -race.

import (
	"testing"
	"time"

	"hierlock/internal/cluster"
	"hierlock/internal/proto"
	"hierlock/internal/sim"
)

func TestSendDeliverAllocs(t *testing.T) {
	s := sim.New(3)
	nw := cluster.NewNetwork(s, sim.Uniform(time.Millisecond, 3*time.Millisecond))
	delivered := 0
	nw.Register(1, func(m *proto.Message) { delivered++ })
	msg := proto.Message{Kind: proto.KindGrant, Lock: 7, From: 0, To: 1, TS: 5}
	step := func() {
		nw.Send(msg)
		s.Run(s.Now() + time.Second)
	}
	// Warm up: the link's FIFO clamp entry, the event heap's backing
	// array and the delivery pool.
	for i := 0; i < 4; i++ {
		step()
	}
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Errorf("Send plus delivery allocates %.1f objects/op, want 0", got)
	}
	if want := 4 + 201; delivered != want {
		t.Errorf("delivered %d messages, want %d", delivered, want)
	}
}
