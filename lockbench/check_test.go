package main

import (
	"strings"
	"testing"

	"hierlock"
)

func fence(seq uint64) hierlock.FenceToken { return hierlock.FenceToken{Seq: seq} }

func TestCheckHoldsAcceptsSerialAndSharedHolds(t *testing.T) {
	holds := []hold{
		{okAt: 10, unlockAt: 20, fence: fence(1), res: 1, mode: hierlock.W, conn: 0},
		{okAt: 25, unlockAt: 40, fence: fence(2), res: 1, mode: hierlock.R, conn: 1},
		// Shared holds may overlap and carry any fence order.
		{okAt: 30, unlockAt: 35, fence: fence(3), res: 1, mode: hierlock.IR, conn: 0},
		{okAt: 45, unlockAt: 50, fence: fence(5), res: 1, mode: hierlock.W, conn: 1},
		// Another resource has its own fence sequence.
		{okAt: 12, unlockAt: 60, fence: fence(1), res: 2, mode: hierlock.W, conn: 0},
	}
	if n, bad, _ := checkHolds(holds, 10); n != 0 {
		t.Fatalf("valid holds flagged: %v", bad)
	}
}

func TestCheckHoldsFlagsOverlap(t *testing.T) {
	holds := []hold{
		{okAt: 10, unlockAt: 30, fence: fence(1), res: 3, mode: hierlock.W, conn: 0},
		// Granted W while the first W was still held.
		{okAt: 20, unlockAt: 40, fence: fence(2), res: 3, mode: hierlock.W, conn: 1},
	}
	n, bad, _ := checkHolds(holds, 10)
	if n != 1 || !strings.Contains(bad[0], "overlap") {
		t.Fatalf("got %d violations %v, want one overlap", n, bad)
	}
}

func TestCheckHoldsFlagsFenceRegression(t *testing.T) {
	holds := []hold{
		{okAt: 10, unlockAt: 20, fence: fence(7), res: 0, mode: hierlock.R, conn: 0},
		// A conflicting grant after the R hold must carry a larger fence.
		{okAt: 30, unlockAt: 40, fence: fence(7), res: 0, mode: hierlock.W, conn: 1},
		{okAt: 50, unlockAt: 60, fence: fence(3), res: 0, mode: hierlock.U, conn: 0},
	}
	n, bad, _ := checkHolds(holds, 1)
	if n != 2 || len(bad) != 1 || !strings.Contains(bad[0], "fence regression") {
		t.Fatalf("got %d violations %v, want two fence regressions with one message", n, bad)
	}
}

func TestCheckHoldsCountsContestedGrants(t *testing.T) {
	holds := []hold{
		{sentAt: 0, okAt: 10, unlockAt: 30, fence: fence(1), res: 4, mode: hierlock.W, conn: 0},
		// Sent while conn 0 held the lock, granted after its UNLOCK.
		{sentAt: 15, okAt: 35, unlockAt: 40, fence: fence(2), res: 4, mode: hierlock.W, conn: 1},
		// Sent after conn 1's UNLOCK: nothing to wait for.
		{sentAt: 45, okAt: 50, unlockAt: 60, fence: fence(3), res: 4, mode: hierlock.R, conn: 0},
		// Compatible with the R hold it was sent under, so never made to wait.
		{sentAt: 55, okAt: 56, unlockAt: 58, fence: fence(4), res: 4, mode: hierlock.IR, conn: 1},
	}
	n, bad, contested := checkHolds(holds, 10)
	if n != 0 || contested != 1 {
		t.Fatalf("got %d violations %v and %d contested grants, want 0 and 1", n, bad, contested)
	}
}
