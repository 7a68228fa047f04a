package hierlock

import (
	"testing"
	"time"

	"hierlock/internal/metrics"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// TestDisabledTelemetryAllocatesNothing guards the disabled fast path:
// a member that never got SetTelemetry carries a zero telemetry struct
// (nil registry, nil recorder, nil handles), and every instrumentation
// call a protocol step makes must then add zero allocations.
func TestDisabledTelemetryAllocatesNothing(t *testing.T) {
	var tel telemetry
	e := trace.Entry{Op: trace.OpSend, Kind: proto.KindToken, From: 0, To: 2, Lock: 7}
	if n := testing.AllocsPerRun(200, func() {
		// The calls dispatchLocked/handle/LockWithPriority make per step.
		tel.CountSent(proto.KindRequest)
		tel.CountSent(proto.Kind(250)) // unknown bucket, still free
		tel.Requests.Inc()
		tel.Acquires.Inc()
		tel.sharedJoins.Inc()
		tel.ObserveQueueWait(time.Millisecond)
		tel.ObserveGrant(10 * time.Millisecond)
		tel.ObserveOp(metrics.OpLock, metrics.OutcomeRemote, 10*time.Millisecond, 1)
		tel.Fences.Inc()
		tel.rec.Record(e)
	}); n != 0 {
		t.Fatalf("disabled telemetry allocated %.1f times per protocol step", n)
	}
}
