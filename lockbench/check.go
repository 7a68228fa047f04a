package main

import (
	"fmt"
	"sort"

	"hierlock"
)

// hold is one granted lock as the client saw it: the fence from the OK
// reply, when the LOCK was sent, when the OK arrived and when the UNLOCK
// was sent, all on the benchmark's one monotonic clock (nanoseconds
// since the run began).
type hold struct {
	sentAt, okAt, unlockAt int64
	fence                  hierlock.FenceToken
	res                    uint16
	mode                   hierlock.Mode
	conn                   uint8
}

// checkHolds verifies the two client-visible safety properties over a
// run's holds and returns the number of violations with a message for
// each of the first limit:
//
//   - no two conflicting holds of a resource overlap: a conflicting OK
//     never arrives before the previous holder's UNLOCK was sent;
//   - fences strictly increase across conflicting grants of a resource.
//
// Holds are taken in the order their OKs arrived. Because the overlap
// check orders every conflicting pair, that is the grant order the
// fence check needs.
//
// It also returns how many grants were contested: their LOCK was sent
// while the latest earlier conflicting hold of the resource, from the
// other connection, was still held, so lockd had to make them wait.
// Those are the grants on which the overlap check has teeth.
func checkHolds(holds []hold, limit int) (violations int, msgs []string, contested int) {
	byRes := map[uint16][]hold{}
	for _, h := range holds {
		byRes[h.res] = append(byRes[h.res], h)
	}
	var bad []string
	n := 0
	report := func(format string, args ...any) {
		n++
		if len(bad) < limit {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	resources := make([]int, 0, len(byRes))
	for r := range byRes {
		resources = append(resources, int(r))
	}
	sort.Ints(resources)
	for _, r := range resources {
		hs := byRes[uint16(r)]
		sort.Slice(hs, func(i, j int) bool { return hs[i].okAt < hs[j].okAt })
		// active holds the holds whose UNLOCK was not yet sent when the
		// current OK arrived; with two clients it stays tiny.
		var active []hold
		// maxFence[m] is the largest fence granted so far in mode m.
		var maxFence [8]hierlock.FenceToken
		var seen [8]bool
		for i, h := range hs {
			for j := i - 1; j >= 0 && j >= i-contestLookback; j-- {
				if p := hs[j]; p.conn != h.conn && !hierlock.Compatible(p.mode, h.mode) {
					if h.sentAt < p.unlockAt {
						contested++
					}
					break
				}
			}
			kept := active[:0]
			for _, a := range active {
				if a.unlockAt > h.okAt {
					kept = append(kept, a)
				}
			}
			active = kept
			for _, a := range active {
				if !hierlock.Compatible(a.mode, h.mode) {
					report("overlap on resource %d: %v hold (conn %d, fence %v) granted before %v hold (conn %d, fence %v) was released",
						r, h.mode, h.conn, h.fence, a.mode, a.conn, a.fence)
				}
			}
			for m := range maxFence {
				if seen[m] && !hierlock.Compatible(hierlock.Mode(m), h.mode) && !maxFence[m].Less(h.fence) {
					report("fence regression on resource %d: %v grant fence %v not above earlier conflicting %v fence %v",
						r, h.mode, h.fence, hierlock.Mode(m), maxFence[m])
				}
			}
			if int(h.mode) < len(maxFence) {
				if !seen[h.mode] || maxFence[h.mode].Less(h.fence) {
					maxFence[h.mode] = h.fence
				}
				seen[h.mode] = true
			}
			active = append(active, h)
		}
	}
	return n, bad, contested
}

// contestLookback bounds how far back checkHolds looks for the latest
// earlier conflicting hold when it counts contested grants.
const contestLookback = 64
