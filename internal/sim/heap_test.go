package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// stamp is an event's position in the firing order.
type stamp struct {
	at  time.Duration
	seq uint64
}

func (a stamp) less(b stamp) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// orderLog records each scheduled event's stamp and the order events
// fire in.
type orderLog struct {
	s         *Sim
	scheduled []stamp
	fired     []stamp
}

// note records the event just scheduled and returns its stamp.
func (l *orderLog) note(delay time.Duration) stamp {
	st := stamp{at: l.s.now + max(delay, 0), seq: l.s.seq}
	l.scheduled = append(l.scheduled, st)
	return st
}

// pooled is a reusable Firer node, the pattern the simulated network
// uses for message deliveries: it returns itself to the pool after
// firing, and the next scheduling reuses it.
type pooled struct {
	log  *orderLog
	st   stamp
	then func()
	pool *[]*pooled
}

func (p *pooled) Fire() {
	p.log.fired = append(p.log.fired, p.st)
	then := p.then
	*p = pooled{log: p.log, pool: p.pool}
	*p.pool = append(*p.pool, p)
	if then != nil {
		then()
	}
}

// TestHeapOrderMatchesSort schedules random events through At, AtDaemon
// and pooled AtFirer nodes, some of them from inside firing events, and
// checks that they fire in exactly the (time, scheduling order) sequence
// a sort of everything scheduled gives.
func TestHeapOrderMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		log := &orderLog{s: s}
		var pool []*pooled
		budget := 3000
		var schedule func()
		schedule = func() {
			if budget == 0 {
				return
			}
			budget--
			// Coarse delays make ties common; a few are negative.
			delay := time.Duration(rng.Intn(40)-3) * time.Millisecond
			var then func()
			if rng.Intn(3) == 0 {
				then = schedule // nested scheduling from a firing event
			}
			switch kind := rng.Intn(3); kind {
			case 0, 1:
				var st stamp
				fn := func() {
					log.fired = append(log.fired, st)
					if then != nil {
						then()
					}
				}
				if kind == 0 {
					s.At(delay, fn)
				} else {
					s.AtDaemon(delay, fn)
				}
				st = log.note(delay)
			default:
				var p *pooled
				if n := len(pool); n > 0 {
					p, pool = pool[n-1], pool[:n-1]
				} else {
					p = &pooled{log: log, pool: &pool}
				}
				s.AtFirer(delay, p)
				p.st, p.then = log.note(delay), then
			}
		}
		for i := 0; i < 500; i++ {
			schedule()
		}
		// Run in slices, then drain, so both loops pop.
		for until := time.Duration(0); s.Pending() > 0 && until < 200*time.Millisecond; until += 7 * time.Millisecond {
			s.Run(until)
		}
		if !s.Drain(1 << 20) {
			t.Fatalf("seed %d: drain did not quiesce", seed)
		}
		want := append([]stamp(nil), log.scheduled...)
		sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
		if len(log.fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, scheduled %d", seed, len(log.fired), len(want))
		}
		for i := range want {
			if log.fired[i] != want[i] {
				t.Fatalf("seed %d: event %d fired %+v, sorted order has %+v", seed, i, log.fired[i], want[i])
			}
		}
		if s.Pending() != 0 || s.daemons != 0 {
			t.Fatalf("seed %d: pending %d, daemons %d after drain", seed, s.Pending(), s.daemons)
		}
	}
}
