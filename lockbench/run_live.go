package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"hierlock/internal/metrics"
)

// runLive runs one lockd workload: it launches the cluster setupRepeats
// times (set-up time is their median), warms up, measures, and checks
// client-visible safety plus every member's audit, health and recovery
// state. With tracing it splits the measured time into an untraced and
// a traced window, then costs each layer in process.
func runLive(o options, spec liveSpec) (*result, error) {
	if o.lockd == "" {
		return nil, errors.New("-lockd is required for the lockd workloads")
	}
	// The client process runs on one P: its two connections spend their
	// time blocked on replies, and a second P only adds scheduler
	// spinning that competes with lockd for the host's two CPUs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientProcs))
	lr, err := startLive(spec, o.lockd, o.workdir, o.seed)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			closeClients(lr.clients)
			lr.cluster.kill()
		}
	}()

	stop := make(chan struct{})
	driven := make(chan struct{})
	go func() {
		lr.drive(stop)
		close(driven)
	}()
	measure := func(d time.Duration) window {
		from := lr.clock()
		select {
		case <-time.After(d):
		case <-driven:
		}
		return window{from, lr.clock()}
	}
	measure(warmup)

	var untraced, traced window
	var before, after []promSnapshot
	var prof *cpuBuckets
	var traceErr error
	if !o.trace {
		untraced = measure(time.Duration(o.seconds) * time.Second)
	} else {
		half := max(1, o.seconds/2)
		untraced = measure(time.Duration(half) * time.Second)
		before, traceErr = lr.cluster.scrape()
		from := lr.clock()
		if traceErr == nil {
			prof, traceErr = lr.cluster.profile(half)
		}
		traced = window{from, lr.clock()}
		if traceErr == nil {
			after, traceErr = lr.cluster.scrape()
		}
	}
	close(stop)
	<-driven
	if traceErr != nil {
		return nil, traceErr
	}

	res := &result{}
	final, err := lr.cluster.scrape()
	if err != nil {
		return nil, err
	}
	health := lr.cluster.checkHealth(final)
	rss, err := lr.cluster.peakRSSMB()
	if err != nil {
		return nil, err
	}
	closeClients(lr.clients)
	lr.cluster.stop(false)
	stopped = true
	if err := lr.cluster.exitError(); err != nil {
		health = append(health, err.Error())
	}

	var cycles int64
	for _, c := range lr.clients {
		cycles += int64(len(c.cycles))
		res.fail(int64(len(c.failures)), c.failures...)
	}
	res.attempted = 2*cycles + res.failed
	holds := lr.holds()
	nbad, bad, contested := checkHolds(holds, 10)
	res.fail(int64(nbad), bad...)
	res.fail(int64(len(health)), health...)
	res.attempted += int64(len(health))

	st := lr.stats(untraced)
	fmt.Fprintf(o.out, "# %s: %d cycles in %.2fs; acquire p50 %.1fus p99 %.1fus over %d samples; release p50 %.1fus\n",
		o.workload, st.cycles, untraced.duration().Seconds(), st.acqP50, st.acqP99, st.cycles, st.relP50)
	fmt.Fprintf(o.out, "# safety: %d grants checked, %d of them contested (LOCK sent while a conflicting hold was held); 1 cycle in %d held its grant %v\n",
		len(holds), contested, holdEvery, holdFor)
	fmt.Fprintf(o.out, "# set-up times (s): %v\n", lr.setup)
	untracedE2E := e2e{st.cyclesPerS, st.acqMean, st.acqP99}
	if !o.trace {
		res.metrics = append(untracedE2E.metrics(),
			metric{"setup_s", "s", median(lr.setup)},
			metric{"peak_rss_mb", "MB", rss})
		printTable(o.out, "end-to-end metrics", res.metrics)
		return res, nil
	}

	tst := lr.stats(traced)
	printOverhead(o.out, untracedE2E, e2e{tst.cyclesPerS, tst.acqMean, tst.acqP99})
	// The in-process members run as a lockd would, on every CPU.
	runtime.GOMAXPROCS(runtime.NumCPU())
	vals, err := liveLayerSpans(o, spec, 4*time.Second)
	if err != nil {
		return nil, err
	}
	d := promDelta{before, after}
	tc := float64(tst.cycles)
	vals["client.acquire_p50_us"] = tst.acqP50
	vals["client.release_p50_us"] = tst.relP50
	vals["session.handoffs_per_cycle"] = ratio(d.sum("hierlock_admission_handoffs_total", nil), tc)
	vals["session.enqueued_per_cycle"] = ratio(d.sum("hierlock_admission_enqueued_total", nil), tc)
	vals["member.remote_frac"] = ratio(
		d.histCount("hierlock_op_latency_seconds", map[string]string{"op": "lock", "outcome": "remote"}),
		d.histCount("hierlock_op_latency_seconds", map[string]string{"op": "lock"}))
	vals["member.queue_wait_mean_us"] = queueWaitMeanUS(d)
	vals["member.shared_joins_per_cycle"] = ratio(d.sum("hierlock_shared_joins_total", nil), tc)
	for _, k := range metrics.Kinds {
		vals["hlock.msgs_per_cycle."+k.String()] = ratio(d.sum("hierlock_messages_sent_total", map[string]string{"kind": k.String()}), tc)
	}
	vals["hlock.token_transfers_per_cycle"] = ratio(d.sum("hierlock_token_transfers_total", map[string]string{"direction": "in"}), tc)
	msgs := d.sum("hierlock_messages_sent_total", nil)
	vals["proto.bytes_per_cycle"] = ratio(d.sum("hierlock_transport_bytes_total", map[string]string{"direction": "sent"}), tc)
	vals["transport.frames_per_cycle"] = ratio(msgs, tc)
	vals["journal.records_per_cycle"] = ratio(d.sum("hierlock_journal_records_total", nil), tc)
	vals["journal.fsyncs_per_cycle"] = ratio(d.sum("hierlock_journal_fsyncs_total", nil), tc)
	vals["recovery.heartbeats_per_s"] = perSecond(d.sum("hierlock_transport_frames_total", map[string]string{"direction": "sent"})-msgs, traced.duration())
	var rounds float64
	for _, s := range final {
		rounds += s.sum("hierlock_recovery_rounds_total", nil)
	}
	vals["recovery.rounds"] = rounds
	cpuShares(prof, vals)
	res.metrics = layerResult(o, vals)
	return res, nil
}

// exitError reports a member whose graceful shutdown failed.
func (c *liveCluster) exitError() error {
	for _, m := range c.members {
		if m.exitErr != nil {
			return fmt.Errorf("lockd %d exited with %v; log %s:\n%s", m.id, m.exitErr, m.logPath, tail(m.logPath))
		}
	}
	return nil
}
