package main

// The five workloads. Each has a build step (timed as setup_s: train,
// compile, pipeline build, shard start and dial), a prepare step that
// makes the inputs from -seed and computes the reference outputs, a
// verification pass that serves every input once and yields the
// simulated-clock metrics, and a measured window.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/neurogo/neurogo"
)

// workload is one entry of the benchmark. The why strings are the ones
// BENCHMARK.json carries.
type workload struct {
	name, why string
	build     func() (sut, error)
}

var workloads = []workload{
	{"flat_closed", "host-bound flat digit classifier, one closed-loop Session.Classify client: encode/linemap/inject/collect dominate, so host-I/O work shows here and core work barely does", buildFlatClosed},
	{"flat_open", "same model behind the async front-end, open-loop Poisson arrivals at a fixed 3000/s: the only workload with queueing, so front-end and service-time changes show as latency", buildFlatOpen},
	{"conv_tile", "routed conv/pool/read-out stack on a 2x2 chip tile, trivial encoder: tick/route-bound, so core, chip, noc and system changes show here and host-I/O changes should not", buildConvTile},
	{"conv_shards", "delay-padded conv stack across two shard servers on unix sockets, 4-tick exchange windows: RPC round-trips, Reset RPCs and gob dominate; core and host-I/O gains predicted flat", buildConvShards},
	{"keyword_stream", "sparse 16-line keyword-spotting stream, state kept, 1000 ticks per op, continuous decisions: uses Session/Runner/collect unlike Classify and is the leg skip-ahead must win on", buildKeyword},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simMetrics are the simulated-clock end-to-end metrics: exact for a
// fixed seed, because they are taken over the verification pass, which
// serves each generated input exactly once whatever the host's speed.
type simMetrics struct {
	accuracy, energyNJ, detectTicks float64
}

// sut is a built system under test.
type sut interface {
	// prepare makes the inputs from seed and computes the reference
	// outputs on an independent sequential single-chip path.
	prepare(seed uint64) error
	// verify serves every input once and checks each output against the
	// reference. It returns operations attempted and failed.
	verify() (attempted, failed int, err error)
	// measure runs the warm-up and the measured window.
	measure(seed uint64, warm, window time.Duration) (w windowStats, o *openStats, attempted, failed int)
	// finish ends the run (draining streams), completes any deferred
	// verification and returns the simulated-clock metrics.
	finish() (m simMetrics, failed int, err error)
	close()
}

// classifySUT serves a classifyRig through a pipeline.
type classifySUT struct {
	rig      *classifyRig
	p        *neurogo.Pipeline
	classify func(context.Context, []float64) (int, error)
	ap       *neurogo.AsyncPipeline // flat_open
	shards   *shardSet              // conv_shards

	x   [][]float64
	y   []int
	ref []int
	sim simMetrics
	// corruptRef makes prepare flip one reference entry — the tests use
	// it to prove a wrong expectation fails the run.
	corruptRef bool
}

func buildFlatClosed() (sut, error) {
	rig, err := newFlatRig()
	if err != nil {
		return nil, err
	}
	p, err := neurogo.NewPipeline(rig.mapping, rig.options()...)
	if err != nil {
		return nil, err
	}
	return &classifySUT{rig: rig, p: p, classify: p.NewSession().Classify}, nil
}

// Open-loop operating point: a fixed absolute rate, so a faster service
// visibly lowers latency instead of moving the load. The generator holds
// one of the box's two processors (see openLoop), so the rate is set
// against the one that is left: 3000/s is about 45% of what it sustains.
const (
	openRate    = 3000.0
	openWorkers = 2
	openQueue   = 256
)

func buildFlatOpen() (sut, error) {
	rig, err := newFlatRig()
	if err != nil {
		return nil, err
	}
	p, err := neurogo.NewPipeline(rig.mapping, rig.options()...)
	if err != nil {
		return nil, err
	}
	ap, err := p.Async(neurogo.WithAsyncWorkers(openWorkers), neurogo.WithQueueDepth(openQueue))
	if err != nil {
		p.Close()
		return nil, err
	}
	return &classifySUT{rig: rig, p: p, ap: ap}, nil
}

func buildConvTile() (sut, error) {
	rig, err := newConvRig(false)
	if err != nil {
		return nil, err
	}
	st := rig.mapping.Stats
	p, err := neurogo.NewPipeline(rig.mapping, rig.options(neurogo.WithSystem(st.ChipCoresX, st.ChipCoresY))...)
	if err != nil {
		return nil, err
	}
	return &classifySUT{rig: rig, p: p, classify: p.NewSession().Classify}, nil
}

const numShards = 2

func buildConvShards() (sut, error) {
	rig, err := newConvRig(true)
	if err != nil {
		return nil, err
	}
	shards, err := startShards(rig.mapping, numShards, scratchDir, false)
	if err != nil {
		return nil, err
	}
	p, err := neurogo.NewPipeline(rig.mapping, rig.options(
		neurogo.WithRemoteSystem(shards.addrs...), neurogo.WithExchangeWindow(0))...)
	if err != nil {
		shards.close()
		return nil, err
	}
	return &classifySUT{rig: rig, p: p, classify: p.Classify, shards: shards}, nil
}

func (s *classifySUT) close() {
	s.p.Close() // closes the async front-end and severs shard connections
	if s.shards != nil {
		s.shards.close()
	}
}

// reference classifies x sequentially on a fresh single-chip
// event-engine pipeline over the rig's mapping — the path every backend
// and front-end must agree with bit for bit (DESIGN.md §6).
func (r *classifyRig) reference(x [][]float64) ([]int, error) {
	p, err := neurogo.NewPipeline(r.mapping, r.options()...)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	sess := p.NewSession()
	ref := make([]int, len(x))
	for i, img := range x {
		if ref[i], err = sess.Classify(context.Background(), img); err != nil {
			return nil, fmt.Errorf("reference classify %d: %w", i, err)
		}
	}
	return ref, nil
}

func (s *classifySUT) prepare(seed uint64) error {
	s.x, s.y = s.rig.inputs(seed)
	ref, err := s.rig.reference(s.x)
	if err != nil {
		return err
	}
	if s.corruptRef {
		ref[0] = (ref[0] + 1) % neurogo.NumDigitClasses
	}
	s.ref = ref
	return nil
}

func (s *classifySUT) verify() (attempted, failed int, err error) {
	ctx := context.Background()
	pred := make([]int, len(s.x))
	if s.ap != nil {
		chans := make([]<-chan neurogo.AsyncResult, len(s.x))
		for i, img := range s.x {
			chans[i] = s.ap.Submit(ctx, img)
		}
		for i, ch := range chans {
			r := <-ch
			pred[i] = r.Class
			if r.Err != nil {
				pred[i] = -1
			}
		}
	} else {
		for i, img := range s.x {
			c, err := s.classify(ctx, img)
			if err != nil {
				c = -1
			}
			pred[i] = c
		}
	}
	right := 0
	for i, c := range pred {
		if c != s.ref[i] {
			failed++
		}
		if c == s.y[i] {
			right++
		}
	}
	n := float64(len(s.x))
	u := neurogo.PipelineUsageOf(s.p, true)
	s.sim = simMetrics{
		accuracy: float64(right) / n,
		energyNJ: neurogo.DefaultEnergyCoefficients().Evaluate(u).TotalPJ / n / 1000,
		// Simulated ticks from the last stimulus tick to the decision.
		detectTicks: float64(u.Ticks)/n - float64(s.rig.window),
	}
	if s.shards != nil {
		if err := s.checkBoundaryTotals(u); err != nil {
			return len(s.x), failed + 1, err
		}
	}
	return len(s.x), failed, nil
}

// checkBoundaryTotals requires the distributed run's intra/inter-chip
// spike totals to equal an in-process sharded run over the same inputs
// (driven by the staged driver, which must also reproduce the reference
// predictions).
func (s *classifySUT) checkBoundaryTotals(u neurogo.EnergyUsage) error {
	st := s.rig.mapping.Stats
	r, err := neurogo.NewShardedRunner(s.rig.mapping,
		neurogo.SystemConfig{ChipCoresX: st.ChipCoresX, ChipCoresY: st.ChipCoresY}, numShards, neurogo.EngineEvent, 1)
	if err != nil {
		return err
	}
	r.SetExchangeWindow(0)
	d := newStagedDriver(s.rig, r, r.Reset)
	var p timeProbe
	for i, img := range s.x {
		c, err := d.classify(img, &p)
		if err != nil {
			return err
		}
		if c != s.ref[i] {
			return fmt.Errorf("in-process sharded run classifies input %d as %d, reference %d", i, c, s.ref[i])
		}
	}
	intra, inter := r.BoundarySpikes()
	if intra != u.IntraChipSpikes || inter != u.InterChipSpikes {
		return fmt.Errorf("boundary totals diverge: remote intra/inter %d/%d, in-process %d/%d",
			u.IntraChipSpikes, u.InterChipSpikes, intra, inter)
	}
	return nil
}

func (s *classifySUT) measure(seed uint64, warm, window time.Duration) (windowStats, *openStats, int, int) {
	n := len(s.x)
	if s.ap != nil {
		// A second stream of the same seed: the arrival times.
		due := poissonSchedule(seed, openRate, warm+window)
		w, o, attempted, failed := openLoop(s.ap, due, warm, window,
			func(i int) []float64 { return s.x[i%n] },
			func(i, class int) bool { return class == s.ref[i%n] })
		return w, &o, attempted, failed
	}
	ctx := context.Background()
	w, attempted, failed := closedLoop(warm, window, n, func(i int) bool {
		c, err := s.classify(ctx, s.x[i%n])
		return err == nil && c == s.ref[i%n]
	})
	return w, nil, attempted, failed
}

func (s *classifySUT) finish() (simMetrics, int, error) { return s.sim, 0, nil }

// keywordSUT serves the keyword-spotting stream.
type keywordSUT struct {
	rig *keywordRig
	p   *neurogo.Pipeline
	st  *neurogo.PipelineStream

	in       *motifInput
	refTicks []int64 // reference decision ticks over the first period
	energyNJ float64

	decisions chan []int64 // the consumer's collected first-period decision ticks
}

func buildKeyword() (sut, error) {
	rig, err := newKeywordRig()
	if err != nil {
		return nil, err
	}
	p, err := rig.pipeline()
	if err != nil {
		return nil, err
	}
	return &keywordSUT{rig: rig, p: p}, nil
}

func (s *keywordSUT) close() { s.p.Close() }

func (s *keywordSUT) prepare(seed uint64) error {
	s.in = s.rig.inputs(seed)
	var err error
	s.refTicks, err = s.rig.reference(s.in)
	return err
}

// verifiable is how far into the first period decisions are compared:
// the running stream's decision frontier trails execution by the
// output lag, so the period's last few ticks are left out.
const verifiable = keywordPeriod - 64

// reference computes the decision ticks of the first period from a bare
// Runner, with no Stream, decoder or chunking involved: the sliding
// counter decides at t exactly when the detector fired at t or t-1.
func (r *keywordRig) reference(in *motifInput) ([]int64, error) {
	run := neurogo.NewRunner(r.mapping, neurogo.EngineEvent, 1)
	var ticks []int64
	mark := func(t int64) {
		if t < verifiable && (len(ticks) == 0 || ticks[len(ticks)-1] < t) {
			ticks = append(ticks, t)
		}
	}
	for t := 0; t < keywordPeriod; t++ {
		for _, line := range in.tick(t) {
			if err := run.InjectLine(line); err != nil {
				return nil, err
			}
		}
		for _, e := range run.Step() {
			if e.Neuron == r.out {
				for k := int64(0); k < decisionWin; k++ {
					mark(e.Tick + k)
				}
			}
		}
	}
	return ticks, nil
}

// op feeds one operation's ticks (ticksPerOp of them) into the stream.
func (s *keywordSUT) op(i int) bool {
	base := (i % keywordOps) * ticksPerOp
	for t := base; t < base+ticksPerOp; t++ {
		for _, line := range s.in.tick(t) {
			if err := s.st.Inject(line); err != nil {
				return false
			}
		}
		if _, err := s.st.Tick(); err != nil {
			return false
		}
	}
	return true
}

func (s *keywordSUT) verify() (attempted, failed int, err error) {
	s.st = s.p.NewSession().Stream(context.Background())
	decCh := s.st.Decisions()
	s.decisions = make(chan []int64, 1)
	go func() {
		var first []int64
		for d := range decCh {
			if d.Tick < verifiable {
				first = append(first, d.Tick)
			}
		}
		s.decisions <- first
	}()
	for i := 0; i < keywordOps; i++ {
		if !s.op(i) {
			failed++
		}
	}
	u := neurogo.PipelineUsageOf(s.p, true)
	s.energyNJ = neurogo.DefaultEnergyCoefficients().Evaluate(u).TotalPJ / keywordOps / 1000
	return keywordOps, failed, nil
}

func (s *keywordSUT) measure(_ uint64, warm, window time.Duration) (windowStats, *openStats, int, int) {
	w, attempted, failed := closedLoop(warm, window, keywordOps, s.op)
	return w, nil, attempted, failed
}

// finish drains the stream, which closes the decision channel, and
// checks the first period's decision ticks against the reference.
func (s *keywordSUT) finish() (simMetrics, int, error) {
	if _, err := s.st.Drain(); err != nil {
		return simMetrics{}, 1, err
	}
	got := <-s.decisions
	m := simMetrics{energyNJ: s.energyNJ}
	m.accuracy, m.detectTicks = detection(s.in.ends, got, s.rig.pat.Span)
	if err := sameDecisions(got, s.refTicks, verifiable); err != nil {
		return m, 1, err
	}
	if m.accuracy == 0 {
		return m, 1, errors.New("no embedded motif was detected")
	}
	return m, 0, nil
}

// sameDecisions requires the decision ticks below limit (both ascending)
// to be the same.
func sameDecisions(got, ref []int64, limit int64) error {
	below := func(xs []int64) []int64 {
		return xs[:sort.Search(len(xs), func(i int) bool { return xs[i] >= limit })]
	}
	got, ref = below(got), below(ref)
	if len(got) != len(ref) {
		return fmt.Errorf("stream made %d decisions before tick %d, reference %d", len(got), limit, len(ref))
	}
	for i, t := range got {
		if t != ref[i] {
			return fmt.Errorf("decision %d at tick %d, reference tick %d", i, t, ref[i])
		}
	}
	return nil
}

// detection matches each motif end (ascending) with the first decision
// at or after it within span ticks, returning the recall and the mean
// latency in ticks of the matched ones.
func detection(ends, decisions []int64, span int) (recall, meanLatency float64) {
	matched, latency, di := 0, int64(0), 0
	counted := 0
	for _, end := range ends {
		if end+int64(span) >= verifiable {
			break
		}
		counted++
		for di < len(decisions) && decisions[di] < end {
			di++
		}
		if di < len(decisions) && decisions[di] <= end+int64(span) {
			matched++
			latency += decisions[di] - end
		}
	}
	if matched == 0 {
		return 0, 0
	}
	return float64(matched) / float64(counted), float64(latency) / float64(matched)
}
