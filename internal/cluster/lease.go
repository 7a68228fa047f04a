package cluster

import (
	"fmt"
	"time"

	"hierlock"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// Lease is the simulator's mirror of the lockd session tier (see
// internal/session): a named client whose lock holdings are tied to a
// TTL lease on the virtual clock. If the simulated client dies without
// releasing — no Renew, no Close — the lease expires and every lock it
// still holds is force-released, exactly what the live sweeper does
// when a client process crashes mid-hold. Grants minted through a lease
// carry fencing tokens derived from the lock's recovery epoch and the
// node's Lamport clock, the same (epoch, seq) shape the member runtime
// issues.
//
// The simulator is single-threaded, so Lease needs no locking; expiry
// runs as a daemon event (it must not hold a quiescing cluster open).
type Lease struct {
	n        *Node
	name     string
	ttl      time.Duration
	deadline time.Duration // virtual-time expiry
	held     map[proto.LockID]modes.Mode
	gone     bool // expired or closed
}

// OpenLease creates a named lease on this node. ttl must be positive.
func (n *Node) OpenLease(name string, ttl time.Duration) *Lease {
	if ttl <= 0 {
		n.c.fail(fmt.Errorf("cluster: lease %q: non-positive ttl %v", name, ttl))
		ttl = time.Second
	}
	l := &Lease{
		n:        n,
		name:     name,
		ttl:      ttl,
		deadline: n.c.Sim.Now() + ttl,
		held:     make(map[proto.LockID]modes.Mode),
	}
	n.c.tel.sessions.Opened.Inc()
	n.c.tel.sessionsOpen.Add(1)
	l.arm(ttl)
	return l
}

// arm schedules the next expiry check. Daemon events fire normally but
// do not count toward Pending, so an outstanding lease never stops the
// cluster from reporting quiescence.
func (l *Lease) arm(delay time.Duration) {
	l.n.c.Sim.AtDaemon(delay, func() {
		if l.gone {
			return
		}
		now := l.n.c.Sim.Now()
		if now >= l.deadline {
			l.expire()
			return
		}
		l.arm(l.deadline - now)
	})
}

// Renew pushes the lease deadline out to now+TTL (the heartbeat).
func (l *Lease) Renew() {
	if l.gone {
		return
	}
	l.deadline = l.n.c.Sim.Now() + l.ttl
	l.n.c.tel.sessions.Renewals.Inc()
}

// Expired reports whether the lease was reaped or closed.
func (l *Lease) Expired() bool { return l.gone }

// HeldLocks returns the number of locks currently held under the lease.
func (l *Lease) HeldLocks() int { return len(l.held) }

// Acquire requests lock in mode m under the lease; done runs when the
// lock is held, with the grant's fencing token. A grant that lands
// after the lease was reaped is released immediately — the simulator
// analogue of session.AddHeld failing with ErrExpired — and done is not
// called. Acquiring also counts as lease activity (implicit renewal),
// matching the live tier's Touch-per-command semantics.
func (l *Lease) Acquire(lock proto.LockID, m modes.Mode, done func(fence hierlock.FenceToken)) {
	if l.gone {
		return
	}
	l.Renew()
	l.n.Acquire(lock, m, func() {
		if l.gone {
			l.n.Release(lock)
			return
		}
		l.held[lock] = m
		fence := l.mintFence(lock)
		if done != nil {
			done(fence)
		}
	})
}

// mintFence issues a fencing token for a grant on lock: the lock's
// recovery epoch (hierarchical protocol; 0 for the exclusive baselines,
// which have no epochs) paired with a fresh Lamport tick. Lamport ticks
// advance on every protocol interaction, so tokens are strictly
// increasing along any chain of exclusive holds within an epoch, and
// the epoch dominates across recoveries — the same ordering argument
// as Member.mintFence.
func (l *Lease) mintFence(lock proto.LockID) hierlock.FenceToken {
	n := l.n
	var epoch uint32
	if n.hier != nil {
		epoch = n.hierEngine(lock).Epoch()
	}
	f := hierlock.FenceToken{Epoch: epoch, Seq: uint64(n.clock.Tick())}
	n.c.tel.Fences.Inc()
	return f
}

// Release releases one lock held under the lease (no-op when the lease
// never held it or was already reaped — the reaper released for us).
func (l *Lease) Release(lock proto.LockID) {
	if l.gone {
		return
	}
	if _, ok := l.held[lock]; !ok {
		return
	}
	delete(l.held, lock)
	l.Renew()
	l.n.Release(lock)
}

// Close ends the lease explicitly, releasing everything it still holds.
// It returns the number of locks released.
func (l *Lease) Close() int {
	if l.gone {
		return 0
	}
	l.gone = true
	l.n.c.tel.sessions.Closed.Inc()
	l.n.c.tel.sessionsOpen.Add(-1)
	return l.drain()
}

// expire is the sweeper path: the client died, the lease lapsed, and
// its locks are force-released so other clients can make progress.
func (l *Lease) expire() {
	l.gone = true
	l.n.c.tel.sessions.Expired.Inc()
	l.n.c.tel.sessionsOpen.Add(-1)
	n := l.drain()
	l.n.c.tel.sessions.LocksReaped.Add(uint64(n))
}

// drain releases every lock still held under the lease.
func (l *Lease) drain() int {
	released := 0
	for lock := range l.held {
		delete(l.held, lock)
		l.n.Release(lock)
		released++
	}
	return released
}
