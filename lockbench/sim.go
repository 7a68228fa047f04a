package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"hierlock/internal/cluster"
	"hierlock/internal/experiment"
	"hierlock/internal/metrics"
	"hierlock/internal/proto"
	"hierlock/internal/sim"
	"hierlock/internal/workload"
)

const (
	simNodes    = 120
	simLatency  = cluster.DefaultLatencyMean
	simWarmup   = 10 * time.Second
	simDuration = 300 * time.Second
	// cellsPerSec is the number of cells per requested second, so the
	// cell set never depends on speed. Cells run one at a time: two
	// cells at once on a two-CPU host contend for the memory system, and
	// on a shared host that made a seed's rate swing by a quarter
	// between runs, against a twentieth for one cell at a time.
	cellsPerSec  = 7
	simSetupReps = 41
	simMapping   = workload.Hierarchical
	simMeanLatUS = float64(simLatency / time.Microsecond)
)

// cellSeed derives the i-th cell's seed from the benchmark seed
// (splitmix64), so one seed names one fixed cell set.
func cellSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// cellOutcome is what one simulated cell reports to the metrics.
type cellOutcome struct {
	wall      time.Duration
	requests  uint64
	latFactor float64
	p99Factor float64
	msgs      metrics.Messages // sent during the measured window
	events    uint64
}

// sameCell reports whether two runs of one cell seed reached the same
// simulated outcome; wall time and event counts are not compared.
func sameCell(a, b cellOutcome) bool {
	return a.requests == b.requests && a.latFactor == b.latFactor &&
		a.p99Factor == b.p99Factor && a.msgs == b.msgs
}

// cellSet is the outcome of a fixed cell set.
type cellSet struct {
	cells []cellOutcome
}

// e2e derives the end-to-end figures. The rate is simulated requests
// per second of cell wall time.
func (cs cellSet) e2e() e2e {
	var reqs, latW float64
	var busy time.Duration
	var p99 []float64
	for _, c := range cs.cells {
		reqs += float64(c.requests)
		busy += c.wall
		latW += c.latFactor * float64(c.requests)
		p99 = append(p99, c.p99Factor)
	}
	return e2e{
		cyclesPerS: perSecond(reqs, busy),
		acqMeanUS:  ratio(latW, reqs) * simMeanLatUS,
		acqP99US:   mean(p99) * simMeanLatUS,
	}
}

// runCells runs cells 0..n-1 one after another. run reports a cell's
// outcome, or an error that counts as one failed operation; outs[i] is
// nil for a failed cell.
func runCells(n int, res *result, run func(i int) (cellOutcome, error)) []*cellOutcome {
	outs := make([]*cellOutcome, n)
	for i := range outs {
		res.attempted++
		out, err := run(i)
		if err != nil {
			res.fail(1, err.Error())
			continue
		}
		outs[i] = &out
	}
	return outs
}

// collect gathers the cells that ran without error.
func collect(outs []*cellOutcome) cellSet {
	var cs cellSet
	for _, c := range outs {
		if c != nil {
			cs.cells = append(cs.cells, *c)
		}
	}
	return cs
}

// runSim runs the paper's airline workload on the simulator: a fixed
// set of 120-node hierarchical cells whose seeds derive from the
// benchmark seed. Each cell's oracle must pass,
// and re-running the first cell's seed must reproduce its Cell bit for
// bit. A traced run halves the set and replays it with tracing; every
// replayed cell must reach the same outcome as its untraced run.
func runSim(o options) (*result, error) {
	res := &result{}
	var setups []float64
	for i := 0; i < simSetupReps; i++ {
		t0 := time.Now()
		if _, _, _, err := buildCell(cellSeed(o.seed, i)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	n := max(2, o.seconds*cellsPerSec)
	if o.trace {
		n = max(2, n/2)
	}
	var first experiment.Cell
	runs := runCells(n, res, func(i int) (cellOutcome, error) {
		s := cellSeed(o.seed, i)
		t0 := time.Now()
		cell, err := experiment.RunCell(experiment.Config{Seed: s}, simMapping, simNodes)
		if err != nil {
			return cellOutcome{}, fmt.Errorf("cell %d (seed %d): %w", i, s, err)
		}
		if i == 0 {
			first = cell
		}
		return cellOutcome{wall: time.Since(t0), requests: cell.Requests,
			latFactor: cell.ReqLatencyFactor, p99Factor: cell.ReqLatencyP99Factor, msgs: cell.Messages}, nil
	})
	untraced := collect(runs)
	res.attempted++
	if again, err := experiment.RunCell(experiment.Config{Seed: cellSeed(o.seed, 0)}, simMapping, simNodes); err != nil {
		res.fail(1, fmt.Sprintf("determinism re-run: %v", err))
	} else if runs[0] != nil && !reflect.DeepEqual(again, first) {
		res.fail(1, fmt.Sprintf("determinism: re-running seed %d gave %s, first run %s", cellSeed(o.seed, 0), again.Dump(), first.Dump()))
	}
	if len(untraced.cells) == 0 {
		return res, nil
	}
	ue := untraced.e2e()
	fmt.Fprintf(o.out, "# %s: %d cells of %d nodes, %.3fs wall per cell\n",
		o.workload, len(untraced.cells), simNodes, mean(wallSeconds(untraced)))
	if !o.trace {
		rss, err := vmHWM(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.metrics = append(ue.metrics(),
			metric{"setup_s", "s", median(setups)},
			metric{"peak_rss_mb", "MB", rss})
		printTable(o.out, "end-to-end metrics", res.metrics)
		return res, nil
	}

	// Traced replay of the same cells, under a CPU profile.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	replays, vals := simReplay(o.seed, n, res)
	pprof.StopCPUProfile()
	for i, r := range replays {
		if r != nil && runs[i] != nil && !sameCell(*r, *runs[i]) {
			res.fail(1, fmt.Sprintf("traced replay of cell %d (seed %d) differs from its experiment.RunCell run", i, cellSeed(o.seed, i)))
		}
	}
	traced := collect(replays)
	printOverhead(o.out, ue, traced.e2e())
	var bk cpuBuckets
	if err := foldProfile(&bk, prof.Bytes()); err != nil {
		return nil, err
	}
	cpuShares(&bk, vals)
	var reqs float64
	var byKind [len(metrics.Messages{}.ByKind)]float64
	for _, c := range traced.cells {
		reqs += float64(c.requests)
		for k, v := range c.msgs.ByKind {
			byKind[k] += float64(v)
		}
	}
	for _, k := range metrics.Kinds {
		vals["hlock.msgs_per_cycle."+k.String()] = ratio(byKind[k], reqs)
	}
	vals["hlock.token_transfers_per_cycle"] = ratio(byKind[proto.KindToken], reqs)
	engineSpans(paperMode, o.seed, time.Second, vals)
	res.metrics = layerResult(o, vals)
	return res, nil
}

// simReplay replays cells 0..n-1 through the calls experiment.RunCell
// makes, with spans around cluster.New + workload.Attach and around
// Sim.Run and the allocations of the whole replay, and returns each
// cell's outcome (nil if it failed) and the sim.* per-layer values.
func simReplay(seed int64, n int, res *result) ([]*cellOutcome, map[string]float64) {
	var ms0, ms1 runtime.MemStats
	var setupSpan, runSpan time.Duration
	runtime.ReadMemStats(&ms0)
	runs := runCells(n, res, func(i int) (cellOutcome, error) {
		t0 := time.Now()
		c, d, atWarmup, err := buildCell(cellSeed(seed, i))
		if err != nil {
			return cellOutcome{}, err
		}
		t1 := time.Now()
		c.Sim.Run(simWarmup + simDuration)
		t2 := time.Now()
		setupSpan += t1.Sub(t0)
		runSpan += t2.Sub(t1)
		if err := c.Err(); err != nil {
			return cellOutcome{}, fmt.Errorf("traced cell %d: %w", i, err)
		}
		st := d.Stats()
		out := cellOutcome{wall: t2.Sub(t0), requests: st.Requests, events: c.Sim.Fired(),
			latFactor: st.ReqLatency.Factor(simLatency),
			p99Factor: st.ReqLatency.Quantile(0.99).Seconds() / simLatency.Seconds()}
		for k := range out.msgs.ByKind {
			out.msgs.ByKind[k] = c.Net.Metrics.ByKind[k] - atWarmup.ByKind[k]
		}
		return out, nil
	})
	runtime.ReadMemStats(&ms1)
	traced := collect(runs)

	ncells := float64(len(traced.cells))
	var reqs, events, msgs float64
	for _, c := range traced.cells {
		reqs += float64(c.requests)
		events += float64(c.events)
		msgs += float64(c.msgs.Total())
	}
	te := traced.e2e()
	return runs, map[string]float64{
		"sim.cell_s":             ratio((setupSpan + runSpan).Seconds(), ncells),
		"sim.events_per_cell":    ratio(events, ncells),
		"sim.ns_per_event":       ratio(float64(runSpan.Nanoseconds()), events),
		"sim.allocs_per_cell":    ratio(float64(ms1.Mallocs-ms0.Mallocs), ncells),
		"sim.alloc_mb_per_cell":  ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, ncells),
		"sim.msgs_per_req":       ratio(msgs, reqs),
		"sim.latency_factor":     te.acqMeanUS / simMeanLatUS,
		"sim.latency_p99_factor": te.acqP99US / simMeanLatUS,
	}
}

// buildCell performs the set-up half of experiment.RunCell for one
// seed, in its order: the 120-node cluster, the snapshot of message
// counters at the warm-up boundary (filled in when the run reaches it),
// and the attached airline workload.
func buildCell(seed int64) (*cluster.Cluster, *workload.Driver, *metrics.Messages, error) {
	wcfg := workload.Config{Mapping: simMapping, Warmup: simWarmup}
	c := cluster.New(cluster.Config{
		Protocol: simMapping.Protocol(),
		Nodes:    simNodes,
		Locks:    wcfg.Locks(),
		Latency:  sim.UniformAround(simLatency),
		Seed:     seed ^ int64(simNodes)<<8 ^ int64(simMapping),
	})
	atWarmup := new(metrics.Messages)
	c.Sim.At(simWarmup, func() { *atWarmup = c.Net.Metrics })
	d, err := workload.Attach(c, wcfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("attach workload: %w", err)
	}
	return c, d, atWarmup, nil
}

func wallSeconds(cs cellSet) []float64 {
	out := make([]float64, len(cs.cells))
	for i, c := range cs.cells {
		out[i] = c.wall.Seconds()
	}
	return out
}
