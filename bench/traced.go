package main

// The traced run: per-layer metrics measured from outside. The staged
// driver presents each input stage by stage on the workload's own
// backend and records spans; the recorded injection schedule is then
// replayed on bare backends to split chip time from simulator time; a
// short extra pass counts allocations per stage. End-to-end metrics are
// never taken from this run — it only reports, as trace.overhead_frac,
// how much slower its operations are than the untraced ones.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/neurogo/neurogo"
	"github.com/neurogo/neurogo/internal/chip"
	"github.com/neurogo/neurogo/internal/remote"
	"github.com/neurogo/neurogo/internal/sim"
	"github.com/neurogo/neurogo/internal/stats"
	"github.com/neurogo/neurogo/internal/system"
)

// counter indexes the per-slice sums of the traced run.
type counter int

const (
	cOps counter = iota
	cOpNs
	cResetNs
	cEncodeNs
	cLinemapNs
	cInjectNs
	cStepNs
	cDecodeNs
	cSpikesIn
	cInjections
	cEventsOut
	cChipTickNs
	cChipInjectNs
	cTicks
	cSynEvents
	cRouted
	cHops
	cOutSpikes
	cIdleTicks
	cBareTickNs
	cInter
	cIntra
	cShardComputeNs  // TickLocalN on in-process shards, summed over shards
	cReplayRPCTickNs // TickLocalN over the wire during the replay, summed over shards
	cRPCCalls        // tick + reset RPCs of the staged pass, all shards
	cRPCTickNs       // summed over shards
	cRPCResetNs      // summed over shards
	cRPCInjectNs     // client-side injection buffering, all shards
	cBoundary        // boundary spikes shards emitted
	cWindows         // exchange windows (TickLocalN per shard)
	cWireBytes       // bytes read+written by the shard servers
	cStreamInjectNs
	cStreamTickNs
	numCounters
)

type sums [numCounters]float64

// addProbe folds one operation's stage times into the sums.
func (s *sums) addProbe(p *timeProbe) {
	s[cOps]++
	s[cOpNs] += float64(p.last - p.start - p.busy[stHarness])
	s[cResetNs] += float64(p.busy[stReset])
	s[cEncodeNs] += float64(p.busy[stEncode])
	s[cLinemapNs] += float64(p.busy[stLinemap])
	s[cInjectNs] += float64(p.busy[stInject])
	s[cStepNs] += float64(p.busy[stStep])
	s[cDecodeNs] += float64(p.busy[stDecode])
}

// addCounters folds the chip activity between two counter readings.
func (s *sums) addCounters(from, to chip.Counters) {
	s[cSynEvents] += float64(to.Core.SynapticEvents - from.Core.SynapticEvents)
	s[cHops] += float64(to.TotalHops - from.TotalHops)
	s[cRouted] += float64(to.RoutedSpikes - from.RoutedSpikes)
	s[cOutSpikes] += float64(to.OutputSpikes - from.OutputSpikes)
}

// layerMetrics turns one slice's sums into per-layer metric values.
// shards is the number of shard connections (1 when there are none).
func layerMetrics(s *sums, shards float64) map[string]float64 {
	ops := s[cOps]
	us := func(c counter) float64 { return s[c] / ops / 1e3 }
	per := func(c counter) float64 { return s[c] / ops }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"codec.encode_us_per_op":     us(cEncodeNs),
		"codec.spikes_in_per_op":     per(cSpikesIn),
		"codec.decode_us_per_op":     us(cDecodeNs),
		"pipeline.linemap_us_per_op": us(cLinemapNs),
		"pipeline.reset_us_per_op":   us(cResetNs),

		"pipeline.stream_inject_us_per_op":   us(cStreamInjectNs),
		"pipeline.stream_tick_us_per_op":     us(cStreamTickNs),
		"pipeline.stream_overhead_us_per_op": ifPositive(s[cStreamTickNs], (s[cStreamTickNs]-s[cChipTickNs])/ops/1e3),

		"sim.inject_us_per_op":      us(cInjectNs),
		"sim.injections_per_op":     per(cInjections),
		"sim.inject_self_us_per_op": (s[cInjectNs] - s[cChipInjectNs]) / ops / 1e3,
		"sim.step_us_per_op":        us(cStepNs),
		"sim.collect_us_per_op":     (s[cStepNs] - s[cChipTickNs]) / ops / 1e3,
		"sim.events_out_per_op":     per(cEventsOut),

		"chip.tick_us_per_op":         us(cChipTickNs),
		"chip.inject_us_per_op":       us(cChipInjectNs),
		"chip.ticks_per_op":           per(cTicks),
		"chip.synaptic_events_per_op": per(cSynEvents),
		"chip.routed_spikes_per_op":   per(cRouted),
		"chip.hops_per_op":            per(cHops),
		"chip.out_spikes_per_op":      per(cOutSpikes),
		"chip.idle_tick_frac":         frac(s[cIdleTicks], s[cTicks]),

		"system.interchip_frac":          frac(s[cInter], s[cInter]+s[cIntra]),
		"system.inter_spikes_per_op":     per(cInter),
		"system.intra_spikes_per_op":     per(cIntra),
		"system.tile_overhead_us_per_op": ifPositive(s[cBareTickNs], (s[cChipTickNs]-s[cBareTickNs])/ops/1e3),
		"system.shard_compute_us_per_op": s[cShardComputeNs] / shards / ops / 1e3,
		"system.exchange_us_per_op":      ifPositive(s[cReplayRPCTickNs], (s[cChipTickNs]-s[cReplayRPCTickNs]/shards)/ops/1e3),

		"remote.rpc_calls_per_op":       per(cRPCCalls),
		"remote.rpc_us_per_op":          (s[cRPCTickNs] + s[cRPCResetNs]) / shards / ops / 1e3,
		"remote.wire_us_per_op":         ifPositive(s[cRPCTickNs], (s[cRPCTickNs]-s[cShardComputeNs])/shards/ops/1e3),
		"remote.reset_us_per_op":        s[cRPCResetNs] / shards / ops / 1e3,
		"remote.inject_us_per_op":       ifPositive(s[cRPCCalls], us(cChipInjectNs)),
		"remote.boundary_spikes_per_op": per(cBoundary),
		"remote.windows_per_op":         s[cWindows] / shards / ops,
		"remote.wire_bytes_per_op":      per(cWireBytes),
	}
}

// ifPositive reports v only where the layer it describes ran (present > 0).
func ifPositive(present, v float64) float64 {
	if present > 0 {
		return v
	}
	return 0
}

// medianOfSlices computes every per-layer metric per slice and takes
// the median across slices.
func medianOfSlices(slices []sums, shards int) map[string]float64 {
	cols := map[string][]float64{}
	for i := range slices {
		if slices[i][cOps] == 0 {
			continue
		}
		for k, v := range layerMetrics(&slices[i], float64(shards)) {
			cols[k] = append(cols[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range cols {
		out[k] = stats.Median(v)
	}
	return out
}

// tracedResult is what a traced run hands back.
type tracedResult struct {
	metrics           map[string]float64
	attempted, failed int
	spans             *tracer
	opUS              float64 // mean traced operation time, harness excluded
}

// selfChecks adds the trace.* and loadgen.* metrics every traced run
// reports: baseNs is the untraced mean operation time.
func (res *tracedResult) selfChecks(slices []sums, baseNs float64, traceWindow time.Duration) error {
	var ops, opNs float64
	for i := range slices {
		ops += slices[i][cOps]
		opNs += slices[i][cOpNs]
	}
	if ops == 0 {
		return errors.New("traced window too short: no operation completed")
	}
	res.opUS = opNs / ops / 1e3
	res.metrics["trace.overhead_frac"] = res.opUS*1e3/baseNs - 1
	res.metrics["trace.spans"] = float64(len(res.spans.spans))
	if _, ok := res.metrics["loadgen.sent_per_s"]; !ok {
		// Closed loop: the generator sends as fast as operations return.
		res.metrics["loadgen.sent_per_s"] = ops / traceWindow.Seconds()
	}
	return nil
}

// meanOpNs runs op in a closed loop for d and returns the mean time per
// operation: the untraced baseline of trace.overhead_frac.
func meanOpNs(d time.Duration, op func(i int) bool) (ns float64, attempted, failed int) {
	start := time.Now()
	for time.Since(start) < d || attempted == 0 {
		if !op(attempted) {
			failed++
		}
		attempted++
	}
	return float64(time.Since(start)) / float64(attempted), attempted, failed
}

// allocPassOps is the length of the allocation-counting pass; the counts
// are deterministic, so a short pass suffices.
const allocPassOps = 64

// lane is what a traced classifier run drives: a Runner over the
// workload's backend, the untraced serving call the staged driver is
// compared with, and the bare backends the recorded schedule is replayed
// on.
type lane struct {
	r     *sim.Runner
	reset func()
	plain func(context.Context, []float64) (int, error)

	bare     sim.Backend  // same mapping on a bare chip (conv_tile)
	local    sim.Backend  // in-process sharded twin (conv_shards)
	remoteTC []*timedConn // decorated remote clients (conv_shards)
	localTC  []*timedConn // decorated in-process shards (conv_shards)
	counted  *shardSet    // byte-counting servers under r (conv_shards)
	shards   int          // shard connections, 1 when there are none

	closers []func()
}

func (l *lane) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
}

// newLane builds the traced lane of a classifier workload.
func newLane(name string, rig *classifyRig) (l *lane, err error) {
	l = &lane{shards: 1}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	m := rig.mapping
	if name != "conv_shards" {
		opts := rig.options()
		if name == "conv_tile" {
			opts = rig.options(neurogo.WithSystem(m.Stats.ChipCoresX, m.Stats.ChipCoresY))
			l.bare = neurogo.NewRunner(m, neurogo.EngineEvent, 1).Backend()
		}
		p, err := neurogo.NewPipeline(m, opts...)
		if err != nil {
			return l, err
		}
		l.closers = append(l.closers, func() { p.Close() })
		sess := p.NewSession()
		l.r, l.reset = sess.Runner(), sess.Reset
		l.plain = p.NewSession().Classify
		return l, nil
	}

	l.shards = numShards
	st := m.Stats
	cfg := system.Config{ChipCoresX: st.ChipCoresX, ChipCoresY: st.ChipCoresY}
	parts := system.PartitionChips(st.GridWidth/st.ChipCoresX*(st.GridHeight/st.ChipCoresY), numShards)
	// Untraced baseline: the real serving path on its own servers.
	base, err := startShards(m, numShards, scratchDir, false)
	if err != nil {
		return l, err
	}
	l.closers = append(l.closers, base.close)
	bp, err := neurogo.NewPipeline(m, rig.options(neurogo.WithRemoteSystem(base.addrs...), neurogo.WithExchangeWindow(0))...)
	if err != nil {
		return l, err
	}
	l.closers = append(l.closers, func() { bp.Close() })
	l.plain = bp.Classify
	// Traced lane: hand-dialled clients behind timing decorators, on
	// servers whose listeners count bytes.
	if l.counted, err = startShards(m, numShards, scratchDir, true); err != nil {
		return l, err
	}
	l.closers = append(l.closers, l.counted.close)
	conns := make([]system.ShardConn, numShards)
	for i, addr := range l.counted.addrs {
		c, err := remote.Dial(m, cfg, addr, numShards, i, remote.ClientOptions{})
		if err != nil {
			return l, err
		}
		l.closers = append(l.closers, func() { c.Close() })
		conns[i] = c
	}
	var wrapped []system.ShardConn
	wrapped, l.remoteTC = timed(conns)
	sys, err := system.NewShardedFrom(m.Chip, cfg, wrapped, parts)
	if err != nil {
		return l, err
	}
	l.r = sim.NewTiledRunner(m, sys, sim.EngineEvent, 1)
	l.r.SetExchangeWindow(0)
	l.reset = l.r.Reset
	// In-process twin for shard compute time.
	lconns := make([]system.ShardConn, numShards)
	for i, part := range parts {
		if lconns[i], err = system.NewShard(m.Chip, cfg, part, chip.Options{}); err != nil {
			return l, err
		}
	}
	wrapped, l.localTC = timed(lconns)
	l.local, err = system.NewShardedFrom(m.Chip, cfg, wrapped, parts)
	return l, err
}

// tracedClassify is the traced run of the four classifier workloads.
func tracedClassify(name string, seed uint64, seconds float64) (res tracedResult, err error) {
	var rig *classifyRig
	switch name {
	case "flat_closed", "flat_open":
		rig, err = newFlatRig()
	case "conv_tile":
		rig, err = newConvRig(false)
	case "conv_shards":
		rig, err = newConvRig(true)
	}
	if err != nil {
		return res, err
	}
	x, _ := rig.inputs(seed)
	ref, err := rig.reference(x)
	if err != nil {
		return res, err
	}
	n := len(x)
	ctx := context.Background()
	l, err := newLane(name, rig)
	if err != nil {
		return res, err
	}
	defer l.close()
	r, plain, counted := l.r, l.plain, l.counted
	d := newStagedDriver(rig, r, l.reset)

	check := func(i, class int, err error) bool { return err == nil && class == ref[i%n] }
	window := time.Duration(seconds * float64(time.Second))

	// Phase 1: untraced baseline.
	baseNs, att, fail := meanOpNs(window/5, func(i int) bool {
		c, err := plain(ctx, x[i%n])
		return check(i, c, err)
	})
	res.attempted, res.failed = att, fail

	// Phase 2 (flat_open): the async front-end under open-loop load.
	var async map[string]float64
	traceWindow := window - window/5
	if name == "flat_open" {
		traceWindow /= 2
		var a, f int
		async, a, f, err = tracedAsync(rig, x, ref, seed, traceWindow)
		if err != nil {
			return res, err
		}
		res.attempted += a
		res.failed += f
	}

	// Phase 3: staged operations, each followed by its replays.
	res.spans = &tracer{}
	slices := make([]sums, numSlices)
	var rtts []float64
	var tp timeProbe
	per := traceWindow / numSlices
	start := time.Now()
	for i := 0; ; i++ {
		k := int(time.Since(start) / per)
		if k >= numSlices {
			break
		}
		s := &slices[k]
		ctr0 := r.Counters()
		intra0, inter0 := r.BoundarySpikes()
		bytes0 := int64(0)
		if counted != nil {
			bytes0 = counted.bytes.Load()
		}
		class, err := d.classify(x[i%n], &tp)
		res.attempted++
		if !check(i, class, err) {
			res.failed++
			if err != nil {
				return res, fmt.Errorf("staged classify: %w", err)
			}
		}
		s.addProbe(&tp)
		res.spans.addOp(i, "op", &tp)
		ctr1 := r.Counters()
		s.addCounters(ctr0, ctr1)
		intra1, inter1 := r.BoundarySpikes()
		s[cIntra] += float64(intra1 - intra0)
		s[cInter] += float64(inter1 - inter0)
		s[cSpikesIn] += float64(d.spikesIn)
		s[cInjections] += float64(len(d.sched.inj))
		s[cEventsOut] += float64(d.eventsOut)
		s[cTicks] += float64(d.sched.ticks())
		for _, tc := range l.remoteTC {
			st := tc.take()
			s[cRPCCalls] += float64(st.tickCalls + st.resetCalls)
			s[cRPCTickNs] += float64(st.tickNs)
			s[cRPCResetNs] += float64(st.resetNs)
			s[cBoundary] += float64(st.boundaryOut)
			s[cWindows] += float64(st.tickCalls)
			for _, v := range st.rtts {
				rtts = append(rtts, float64(v)/1e3)
			}
		}
		if counted != nil {
			s[cWireBytes] += float64(counted.bytes.Load() - bytes0)
		}

		// Replay the recorded schedule on the bare backend under r.
		rs, err := replay(r.Backend(), &d.sched, true)
		if err != nil {
			return res, err
		}
		if uint64(rs.outSpikes) != ctr1.OutputSpikes-ctr0.OutputSpikes {
			res.failed++
			return res, fmt.Errorf("replay emitted %d output spikes, the Runner pass %d", rs.outSpikes, ctr1.OutputSpikes-ctr0.OutputSpikes)
		}
		s[cChipTickNs] += float64(rs.tickNs)
		s[cChipInjectNs] += float64(rs.injectNs)
		s[cIdleTicks] += float64(rs.idle)
		for _, tc := range l.remoteTC {
			s[cReplayRPCTickNs] += float64(tc.take().tickNs)
		}
		if l.bare != nil {
			bs, err := replay(l.bare, &d.sched, true)
			if err != nil {
				return res, err
			}
			s[cBareTickNs] += float64(bs.tickNs)
		}
		if l.local != nil {
			if _, err := replay(l.local, &d.sched, true); err != nil {
				return res, err
			}
			for _, tc := range l.localTC {
				s[cShardComputeNs] += float64(tc.take().tickNs)
			}
		}
	}

	// Phase 4: allocations per stage.
	var ap allocProbe
	for i := 0; i < allocPassOps; i++ {
		class, err := d.classify(x[i%n], &ap)
		res.attempted++
		if !check(i, class, err) {
			res.failed++
		}
	}

	res.metrics = medianOfSlices(slices, l.shards)
	perOp := func(s stage) float64 { return float64(ap.mallocs[s]) / allocPassOps }
	res.metrics["codec.encode_allocs_per_op"] = perOp(stEncode)
	res.metrics["codec.decode_allocs_per_op"] = perOp(stDecode)
	res.metrics["pipeline.linemap_allocs_per_op"] = perOp(stLinemap)
	res.metrics["sim.inject_allocs_per_op"] = perOp(stInject)
	res.metrics["sim.step_allocs_per_op"] = perOp(stStep)
	res.metrics["remote.rpc_rtt_p50_us"] = stats.Percentile(rtts, 50)
	res.metrics["remote.rpc_rtt_p99_us"] = stats.Percentile(rtts, 99)
	for k, v := range async {
		res.metrics[k] = v
	}
	return res, res.selfChecks(slices, baseNs, traceWindow)
}

// tracedAsync runs the open loop against a fresh async front-end and
// reads the front-end's own metrics.
func tracedAsync(rig *classifyRig, x [][]float64, ref []int, seed uint64, d time.Duration) (map[string]float64, int, int, error) {
	p, err := neurogo.NewPipeline(rig.mapping, rig.options()...)
	if err != nil {
		return nil, 0, 0, err
	}
	defer p.Close()
	ap, err := p.Async(neurogo.WithAsyncWorkers(openWorkers), neurogo.WithQueueDepth(openQueue))
	if err != nil {
		return nil, 0, 0, err
	}
	n := len(x)
	warm := d / 5
	due := poissonSchedule(seed, openRate, d)
	_, o, attempted, failed := openLoop(ap, due, warm, d-warm,
		func(i int) []float64 { return x[i%n] },
		func(i, class int) bool { return class == ref[i%n] })
	m := ap.Metrics()
	usOf := func(t time.Duration) float64 { return float64(t) / float64(time.Microsecond) }
	msOf := func(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }
	return map[string]float64{
		"pipeline.async.submit_us_p50":      o.submitP50US,
		"pipeline.async.queue_wait_p50_ms":  msOf(m.QueueWait.P50),
		"pipeline.async.queue_wait_p99_ms":  msOf(m.QueueWait.P99),
		"pipeline.async.service_ewma_us":    usOf(m.ServiceEWMA),
		"pipeline.async.mean_batch":         m.MeanBatch,
		"pipeline.async.overhead_us_per_op": usOf(m.EndToEnd.Mean - m.QueueWait.Mean - m.ServiceEWMA),
		"loadgen.lag_p99_ms":                o.lagP99MS,
		"loadgen.sent_per_s":                o.sentPerS,
	}, attempted, failed, nil
}

// tracedKeyword is the traced run of keyword_stream: each operation's
// ticks go through the real Stream (timed per call), then through a bare
// Runner, then through a bare backend, all three keeping their state.
func tracedKeyword(seed uint64, seconds float64) (res tracedResult, err error) {
	rig, err := newKeywordRig()
	if err != nil {
		return res, err
	}
	in := rig.inputs(seed)
	ref, err := rig.reference(in)
	if err != nil {
		return res, err
	}
	m := rig.mapping
	window := time.Duration(seconds * float64(time.Second))

	// Phase 1: untraced baseline on its own stream.
	base := &keywordSUT{rig: rig, in: in}
	if base.p, err = rig.pipeline(); err != nil {
		return res, err
	}
	defer base.p.Close()
	base.st = base.p.NewSession().Stream(context.Background())
	baseNs, att, fail := meanOpNs(window/5, base.op)
	res.attempted, res.failed = att, fail
	if _, err := base.st.Drain(); err != nil {
		return res, err
	}

	// The three lanes.
	p, err := rig.pipeline()
	if err != nil {
		return res, err
	}
	defer p.Close()
	st := p.NewSession().Stream(context.Background())
	decCh := st.Decisions()
	collected := make(chan []int64, 1)
	go func() {
		var ticks []int64
		for d := range decCh {
			ticks = append(ticks, d.Tick)
		}
		collected <- ticks
	}()
	run := neurogo.NewRunner(m, neurogo.EngineEvent, 1)
	chipLane := neurogo.NewRunner(m, neurogo.EngineEvent, 1).Backend()

	res.spans = &tracer{}
	slices := make([]sums, numSlices)
	var sched schedule
	var tp, rp timeProbe
	var mem allocProbe
	opsDone := 0
	// lanes puts operation i through all three lanes and folds what it
	// measured into s; with s nil it is the allocation pass, which counts
	// the Runner lane's allocations instead of timing it.
	lanes := func(i int, s *sums) error {
		base := (i % keywordOps) * ticksPerOp
		// Lane 1: the real stream.
		tp.begin()
		for t := 0; t < ticksPerOp; t++ {
			for _, line := range in.tick(base + t) {
				if err := st.Inject(line); err != nil {
					return err
				}
			}
			tp.lap(stStreamInject)
			if _, err := st.Tick(); err != nil {
				return err
			}
			tp.lap(stStreamTick)
		}
		// Lane 2: a bare Runner.
		var pr probe = &rp
		if s == nil {
			pr = &mem
		}
		ctr0 := run.Counters()
		events := 0
		pr.begin()
		for t := 0; t < ticksPerOp; t++ {
			for _, line := range in.tick(base + t) {
				if err := run.InjectLine(line); err != nil {
					return err
				}
			}
			pr.lap(stInject)
			events += len(run.Step())
			pr.lap(stStep)
		}
		if s == nil {
			return nil
		}
		ctr1 := run.Counters()
		// Lane 3: a bare backend fed the same schedule.
		sched.reset()
		for t := 0; t < ticksPerOp; t++ {
			for _, line := range in.tick(base + t) {
				sched.addLine(m, line, int64(t))
			}
			sched.addStep(1)
		}
		rs, err := replay(chipLane, &sched, false)
		if err != nil {
			return err
		}
		if uint64(rs.outSpikes) != ctr1.OutputSpikes-ctr0.OutputSpikes {
			return fmt.Errorf("replay emitted %d output spikes, the Runner lane %d", rs.outSpikes, ctr1.OutputSpikes-ctr0.OutputSpikes)
		}
		s[cOps]++
		s[cOpNs] += float64(tp.last - tp.start)
		s[cStreamInjectNs] += float64(tp.busy[stStreamInject])
		s[cStreamTickNs] += float64(tp.busy[stStreamTick])
		s[cInjectNs] += float64(rp.busy[stInject])
		s[cStepNs] += float64(rp.busy[stStep])
		s[cInjections] += float64(len(sched.inj))
		s[cEventsOut] += float64(events)
		s[cChipTickNs] += float64(rs.tickNs)
		s[cChipInjectNs] += float64(rs.injectNs)
		s[cIdleTicks] += float64(rs.idle)
		s[cTicks] += ticksPerOp
		s.addCounters(ctr0, ctr1)
		res.spans.addOp(i, "op", &tp)
		res.spans.addOp(i, "replay.runner", &rp)
		return nil
	}

	// Phase 2: traced operations.
	traceWindow := window - window/5
	per := traceWindow / numSlices
	start := time.Now()
	for {
		k := int(time.Since(start) / per)
		if k >= numSlices {
			break
		}
		res.attempted++
		if err := lanes(opsDone, &slices[k]); err != nil {
			res.failed++
			return res, err
		}
		opsDone++
	}
	// Phase 3: allocations of the Runner lane (the stream lane runs
	// along to keep the lanes in step, unmeasured).
	const allocOps = 8
	for i := 0; i < allocOps; i++ {
		res.attempted++
		if err := lanes(opsDone, nil); err != nil {
			res.failed++
			return res, err
		}
		opsDone++
	}

	if _, err := st.Drain(); err != nil {
		return res, err
	}
	got := <-collected
	// Decisions over the ticks both the stream and the reference cover.
	limit := int64(verifiable)
	if done := int64(opsDone*ticksPerOp) - 64; done < limit {
		limit = done
	}
	if err := sameDecisions(got, ref, limit); err != nil {
		res.failed++
		return res, err
	}

	res.metrics = medianOfSlices(slices, 1)
	res.metrics["pipeline.decisions_per_op"] = float64(len(got)) / float64(opsDone)
	res.metrics["sim.inject_allocs_per_op"] = float64(mem.mallocs[stInject]) / allocOps
	res.metrics["sim.step_allocs_per_op"] = float64(mem.mallocs[stStep]) / allocOps
	return res, res.selfChecks(slices, baseNs, traceWindow)
}
