package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0.11, 2}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestRates(t *testing.T) {
	if got := perSecond(500, 250*time.Millisecond); got != 2000 {
		t.Errorf("perSecond = %v", got)
	}
	if got := perSecond(5, 0); got != 0 {
		t.Errorf("perSecond over an empty window = %v", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over zero = %v", got)
	}
}

const scrapeBefore = `# HELP hierlock_messages_sent_total protocol messages sent
# TYPE hierlock_messages_sent_total counter
hierlock_messages_sent_total{kind="request"} 10
hierlock_messages_sent_total{kind="token"} 4
hierlock_token_transfers_total{direction="in",lock="res1"} 2
hierlock_token_transfers_total{direction="out",lock="res1"} 1
hierlock_queue_wait_seconds_sum 0.5
hierlock_queue_wait_seconds_count 5
hierlock_note{text="a \"quoted\", comma"} 1
`

const scrapeAfter = `hierlock_messages_sent_total{kind="request"} 25
hierlock_messages_sent_total{kind="token"} 9
hierlock_token_transfers_total{direction="in",lock="res1"} 3
hierlock_token_transfers_total{direction="in",lock="res2"} 4
hierlock_token_transfers_total{direction="out",lock="res1"} 6
hierlock_queue_wait_seconds_sum 0.55
hierlock_queue_wait_seconds_count 15
hierlock_note{text="a \"quoted\", comma"} 1
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.sum("hierlock_note", map[string]string{"text": `a "quoted", comma`}); got != 1 {
		t.Errorf("quoted label not parsed: %v", got)
	}
	// Two members with identical scrapes double every delta.
	d := promDelta{before: []promSnapshot{before, before}, after: []promSnapshot{after, after}}
	if got := d.sum("hierlock_messages_sent_total", nil); got != 2*20 {
		t.Errorf("all kinds delta = %v, want 40", got)
	}
	if got := d.sum("hierlock_messages_sent_total", map[string]string{"kind": "token"}); got != 2*5 {
		t.Errorf("token delta = %v, want 10", got)
	}
	// A series new in the window counts from zero.
	if got := d.sum("hierlock_token_transfers_total", map[string]string{"direction": "in"}); got != 2*5 {
		t.Errorf("transfers in delta = %v, want 10", got)
	}
	// The window adds 0.05 s of wait over 10 waits per member: 5 ms each.
	if got := queueWaitMeanUS(d); math.Abs(got-5000) > 1e-6 {
		t.Errorf("queue wait mean = %v us, want 5000", got)
	}
	if got := queueWaitMeanUS(promDelta{before: []promSnapshot{before}, after: []promSnapshot{before}}); got != 0 {
		t.Errorf("empty window queue wait = %v", got)
	}
	if _, err := parseProm(strings.NewReader("bad{x=1} 2\n")); err == nil {
		t.Error("unquoted label accepted")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"syscall.Syscall6", "internal/poll.(*FD).Write", "hierlock/internal/lockserver.(*Server).ServeConn"}, "syscall"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "hierlock/internal/hlock.(*Engine).Acquire"}, "runtime_malloc"},
		{[]string{"runtime.memmove", "hierlock/internal/hlock.(*Engine).serveQueue", "hierlock.(*Member).dispatch"}, "hlock"},
		{[]string{"hierlock.(*Member).LockWithPriority", "hierlock/internal/lockserver.(*connState).handle"}, "member"},
		{[]string{"hierlock/internal/trace.(*Recorder).Record"}, "telemetry"},
		{[]string{"hierlock/internal/audit.(*Auditor).Record"}, "telemetry"},
		{[]string{"hierlock/internal/journal.(*Journal).Append"}, "journal"},
		{[]string{"hierlock/lockbench.checkHolds"}, "bench"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestFoldProfileBucketsOwnSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	var bk cpuBuckets
	if err := foldProfile(&bk, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if bk.total <= 0 {
		t.Fatal("no samples folded")
	}
	if share := bk.share("bench"); share < 0.5 {
		t.Fatalf("spin loop got %.2f of the samples, buckets %v", share, bk.buckets)
	}
	if err := foldProfile(&bk, []byte("not gzip")); err == nil {
		t.Fatal("garbage profile accepted")
	}
}
