// Package sim is a deterministic discrete-event simulator used to emulate
// the paper's 120-node cluster on one machine. Virtual time advances only
// when events fire, so a two-minute experiment over 150 ms links completes
// in milliseconds of wall-clock time while preserving exactly the
// quantities the paper reports: message counts and latencies measured as
// multiples of the mean point-to-point latency.
//
// The simulator is single-threaded: event callbacks run sequentially in
// timestamp order (ties broken by scheduling order), so simulated nodes
// need no synchronization. Randomness comes from seeded streams, making
// every run reproducible.
package sim

import (
	"math"
	"math/rand"
	"time"
)

// Sim is a discrete-event scheduler. Create with New.
type Sim struct {
	now     time.Duration
	events  eventHeap
	seq     uint64
	nfired  uint64
	daemons int
	master  *rand.Rand
}

// New creates a simulator whose random streams derive from seed.
func New(seed int64) *Sim {
	return &Sim{master: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Fired returns the number of events processed so far.
func (s *Sim) Fired() uint64 { return s.nfired }

// NewRand derives an independent, reproducible random stream.
func (s *Sim) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(s.master.Int63()))
}

// Firer is a scheduled action that fires itself. Scheduling a pointer
// that implements Firer allocates nothing, where a fresh closure per
// event costs one allocation; hot callers (the simulated network's
// message deliveries) keep pooled Firer nodes and reuse them.
type Firer interface{ Fire() }

// funcFirer adapts a plain callback to Firer. A func value is a single
// pointer, so the conversion to the interface does not allocate.
type funcFirer func()

func (f funcFirer) Fire() { f() }

// At schedules fn to run after delay of virtual time. Negative delays are
// clamped to zero (fn runs "now", after currently queued events at the
// same instant).
func (s *Sim) At(delay time.Duration, fn func()) {
	s.schedule(delay, funcFirer(fn), false)
}

// AtFirer schedules f.Fire like At schedules a callback; events from
// both share one (time, scheduling order) sequence.
func (s *Sim) AtFirer(delay time.Duration, f Firer) {
	s.schedule(delay, f, false)
}

// AtDaemon schedules fn like At but as a daemon event: it does not count
// toward Pending, so standing background hooks — a node-restart event at
// the far-future end of a permanent crash window — never stop a cluster
// from reporting quiescence. Run and Drain fire daemons normally.
func (s *Sim) AtDaemon(delay time.Duration, fn func()) {
	s.daemons++
	s.schedule(delay, funcFirer(fn), true)
}

func (s *Sim) schedule(delay time.Duration, f Firer, daemon bool) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.events.push(event{at: s.now + delay, seq: s.seq, daemon: daemon, f: f})
}

// Run processes events until the queue is empty or virtual time would
// exceed `until`. It returns the number of events fired. Events scheduled
// exactly at `until` are processed.
func (s *Sim) Run(until time.Duration) uint64 {
	fired := uint64(0)
	for len(s.events) > 0 && s.events[0].at <= until {
		next := s.events.pop()
		if next.daemon {
			s.daemons--
		}
		s.now = next.at
		next.f.Fire()
		fired++
		s.nfired++
	}
	if s.now < until {
		s.now = until
	}
	return fired
}

// Drain processes every remaining event regardless of time. It guards
// against runaway event cascades with a generous step limit and reports
// whether it fully quiesced.
func (s *Sim) Drain(maxEvents uint64) bool {
	for fired := uint64(0); len(s.events) > 0; fired++ {
		if fired >= maxEvents {
			return false
		}
		next := s.events.pop()
		if next.daemon {
			s.daemons--
		}
		s.now = next.at
		next.f.Fire()
		s.nfired++
	}
	return true
}

// Pending returns the number of scheduled non-daemon events not yet
// fired (daemon events are standing hooks, not outstanding work).
func (s *Sim) Pending() int { return len(s.events) - s.daemons }

type event struct {
	at     time.Duration
	seq    uint64
	daemon bool
	f      Firer
}

// before is the firing order: virtual time, then scheduling order. seq
// is unique, so the order is total and any correct heap pops the same
// sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events by before. It is typed rather
// than built on container/heap, whose interface{} Push and Pop box every
// event on the way in and out.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the first event. The heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the Firer reference for the collector
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Dist is a randomized duration distribution.
type Dist func(rng *rand.Rand) time.Duration

// Exponential returns an exponential distribution with the given mean,
// truncated at 10× the mean to keep simulated tails bounded.
func Exponential(mean time.Duration) Dist {
	return func(rng *rand.Rand) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		if max := 10 * mean; d > max {
			d = max
		}
		return d
	}
}

// Uniform returns a uniform distribution on [lo, hi].
func Uniform(lo, hi time.Duration) Dist {
	if hi < lo {
		lo, hi = hi, lo
	}
	return func(rng *rand.Rand) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
	}
}

// UniformAround returns a uniform distribution on [mean/2, 3·mean/2],
// the default model for the paper's "randomized with mean" parameters.
func UniformAround(mean time.Duration) Dist {
	return Uniform(mean/2, mean+mean/2)
}

// Fixed returns a degenerate distribution.
func Fixed(d time.Duration) Dist {
	return func(*rand.Rand) time.Duration { return d }
}

// MeanOf estimates the mean of a distribution by sampling (testing aid).
func MeanOf(d Dist, rng *rand.Rand, samples int) time.Duration {
	var sum float64
	for i := 0; i < samples; i++ {
		sum += float64(d(rng))
	}
	return time.Duration(math.Round(sum / float64(samples)))
}
