package pipeline

import (
	"context"
	"fmt"
	"testing"

	"github.com/neurogo/neurogo/internal/codec"
	"github.com/neurogo/neurogo/internal/compile"
	"github.com/neurogo/neurogo/internal/corelet"
	"github.com/neurogo/neurogo/internal/dataset"
	"github.com/neurogo/neurogo/internal/model"
	"github.com/neurogo/neurogo/internal/neuron"
	"github.com/neurogo/neurogo/internal/train"
)

// rig is a small compiled digit classifier plus test images.
type rig struct {
	cls     *corelet.Classifier
	mapping *compile.Mapping
	x       [][]float64
	y       []int
}

func buildRig(t *testing.T) *rig {
	t.Helper()
	gen := dataset.NewDigits(8, 0.02, 0, 3)
	xtr, ytr := gen.Batch(300)
	m, err := train.TrainLinear(xtr, ytr, dataset.NumClasses, train.Options{Epochs: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := model.New()
	cls := corelet.BuildClassifier(net, m.Ternarize(1.3), "d", corelet.ClassifierParams{Threshold: 4, Decay: 1})
	mp, err := compile.Compile(net, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, y := gen.Batch(24)
	return &rig{cls: cls, mapping: mp, x: x, y: y}
}

func (rg *rig) pipeline(t *testing.T, opts ...Option) *Pipeline {
	t.Helper()
	base := []Option{
		WithEncoder(codec.NewBernoulli(0.5, 7)),
		WithDecoder(codec.NewCounter(dataset.NumClasses)),
		WithLineMapper(TwinLines(rg.cls.LinesFor)),
		WithClassMapper(rg.cls.ClassOf),
		WithWindow(16),
		WithDrain(10),
	}
	p, err := New(rg.mapping, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil mapping accepted")
	}
	rg := buildRig(t)
	if _, err := New(rg.mapping, WithWindow(0)); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(rg.mapping, WithDrain(-1)); err == nil {
		t.Error("negative drain accepted")
	}
}

func TestClassifyRequiresCodecs(t *testing.T) {
	rg := buildRig(t)
	p, err := New(rg.mapping)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Classify(context.Background(), rg.x[0]); err == nil {
		t.Error("Classify without codecs accepted")
	}
}

func TestSessionReuseBitIdentical(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t)
	s := p.NewSession()
	ctx := context.Background()
	var first []int
	for _, img := range rg.x {
		c, err := s.Classify(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, c)
	}
	// Second pass on the same (now well-used) session must reproduce
	// the first exactly: every presentation is self-contained.
	for i, img := range rg.x {
		c, err := s.Classify(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		if c != first[i] {
			t.Fatalf("image %d: reused session decided %d, first pass %d", i, c, first[i])
		}
	}
}

func TestClassifyBatchMatchesSequential(t *testing.T) {
	rg := buildRig(t)
	ctx := context.Background()
	seq := rg.pipeline(t, WithWorkers(1))
	want, err := seq.ClassifyBatch(ctx, rg.x)
	if err != nil {
		t.Fatal(err)
	}
	par := rg.pipeline(t, WithWorkers(8))
	got, err := par.ClassifyBatch(ctx, rg.x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("image %d: pooled %d, sequential %d", i, got[i], want[i])
		}
	}
}

func TestClassifyCancellation(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Classify(ctx, rg.x[0]); err == nil {
		t.Error("cancelled Classify succeeded")
	}
	if _, err := p.ClassifyBatch(ctx, rg.x); err == nil {
		t.Error("cancelled ClassifyBatch succeeded")
	}
}

func TestStreamLifecycle(t *testing.T) {
	// 1 input -> 1 neuron relay; raw injection through a stream.
	net := model.New()
	in := net.AddInputBank("in", 1, model.SourceProps{Type: 0, Delay: 1})
	pop := net.AddPopulation("p", 1, neuron.Default())
	net.Connect(in.Line(0), pop.ID(0))
	net.MarkOutput(pop.ID(0))
	mp, err := compile.Compile(net, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(mp, WithDrain(3))
	if err != nil {
		t.Fatal(err)
	}
	st := p.NewSession().Stream(context.Background())
	if err := st.Inject(5); err == nil {
		t.Error("unknown line accepted")
	}
	if err := st.Inject(0); err != nil {
		t.Fatal(err)
	}
	var labels []Label
	for i := 0; i < 4; i++ {
		ls, err := st.Tick()
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, ls...)
	}
	ls, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	labels = append(labels, ls...)
	if len(labels) != 1 || labels[0].Tick != 1 || labels[0].Neuron != pop.ID(0) {
		t.Fatalf("labels = %+v, want one fire at tick 1", labels)
	}
	// Default class mapper: the neuron ID itself.
	if labels[0].Class != int(pop.ID(0)) {
		t.Fatalf("default class = %d, want %d", labels[0].Class, pop.ID(0))
	}
	if _, err := st.Tick(); err == nil {
		t.Error("tick after Drain accepted")
	}

	cctx, cancel := context.WithCancel(context.Background())
	st2 := p.NewSession().Stream(cctx)
	cancel()
	if _, err := st2.Tick(); err == nil {
		t.Error("tick after cancellation accepted")
	}
}

// TestUsageNotBlockedByBatch pins the batch-lock fix: a running
// ClassifyBatch must not block Usage, NewSession or Classify on the
// pipeline mutex. Before the fix this test deadlocked — the batch held
// p.mu for its whole duration while the gate encoder wedged it.
func TestUsageNotBlockedByBatch(t *testing.T) {
	rg := buildRig(t)
	gate := newGateEncoder()
	p, err := New(rg.mapping,
		WithEncoder(gate),
		WithDecoder(codec.NewCounter(10)),
		WithWindow(4),
		WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.ClassifyBatch(context.Background(), rg.x[:4])
		done <- err
	}()
	<-gate.started // the batch is mid-presentation, wedged on the gate
	p.Usage(true)  // must return, not wait for the batch
	p.NewSession() // likewise
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestUsageNotBlockedByClassify is the shared-session analogue: a
// presentation running through Pipeline.Classify must not pin p.mu
// either.
func TestUsageNotBlockedByClassify(t *testing.T) {
	rg := buildRig(t)
	gate := newGateEncoder()
	p, err := New(rg.mapping,
		WithEncoder(gate),
		WithDecoder(codec.NewCounter(10)),
		WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Classify(context.Background(), rg.x[0])
		done <- err
	}()
	<-gate.started // the shared session is mid-presentation, wedged
	p.Usage(true)
	p.NewSession()
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestUsageCountsAbandonedStream pins the accounting fix: a stream
// whose context is cancelled before Drain still contributes its pushed
// activity to Pipeline.Usage through the per-operation snapshots.
func TestUsageCountsAbandonedStream(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	st := p.NewSession().Stream(ctx)
	for i := 0; i < 8; i++ {
		if _, err := st.Push(rg.x[0]); err != nil {
			t.Fatal(err)
		}
	}
	cancel() // abandon: Drain can no longer run
	if _, err := st.Drain(); err == nil {
		t.Fatal("Drain on a cancelled stream succeeded")
	}
	if u := p.Usage(true); u.Ticks != 8 {
		t.Fatalf("abandoned stream accounted %d ticks, want 8", u.Ticks)
	}
}

// TestClassifyBatchErrorReturnsNilResults pins the error contract:
// class 0 is a valid label, so a failed batch must return nil results,
// never a zero-filled slice a caller could mistake for labels.
func TestClassifyBatchErrorReturnsNilResults(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := p.ClassifyBatch(ctx, rg.x)
	if err == nil {
		t.Fatal("cancelled batch reported no error")
	}
	if results != nil {
		t.Fatalf("cancelled batch returned results %v, want nil", results)
	}
}

// TestOutOfRangeClassDropped pins the serving-path robustness fix: a
// ClassMapper emitting a class beyond the decoder's range must be
// dropped by ObserveAt, not crash the presentation.
func TestOutOfRangeClassDropped(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t, WithClassMapper(func(id model.NeuronID) int {
		return 1 << 20 // far beyond the 10-class counter
	}))
	if _, err := p.Classify(context.Background(), rg.x[0]); err != nil {
		t.Fatal(err)
	}
}

// resetCountingEncoder wraps an encoder and counts Reset calls.
type resetCountingEncoder struct {
	codec.Encoder
	resets int
}

func (r *resetCountingEncoder) Reset() { r.resets++; r.Encoder.Reset() }
func (r *resetCountingEncoder) Clone() codec.Encoder {
	return r // shared so the test can observe the session's clone
}

// TestPresentOnDeadStream pins the Present ordering fix: a closed or
// cancelled stream must be rejected before the encoder is touched, so
// stale callers cannot clobber encoder phase.
func TestPresentOnDeadStream(t *testing.T) {
	rg := buildRig(t)
	enc := &resetCountingEncoder{Encoder: codec.NewBernoulli(0.5, 7)}
	p, err := New(rg.mapping,
		WithEncoder(enc),
		WithDecoder(codec.NewCounter(10)),
		WithLineMapper(TwinLines(rg.cls.LinesFor)),
		WithClassMapper(rg.cls.ClassOf),
		WithWindow(4),
		WithDrain(2))
	if err != nil {
		t.Fatal(err)
	}
	st := p.NewSession().Stream(context.Background())
	if _, err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	before := enc.resets
	if _, err := st.Present(rg.x[0], 4); err == nil {
		t.Fatal("Present on a drained stream succeeded")
	}
	if enc.resets != before {
		t.Fatalf("Present on a dead stream reset the encoder (%d -> %d)", before, enc.resets)
	}

	cctx, cancel := context.WithCancel(context.Background())
	st2 := p.NewSession().Stream(cctx)
	cancel()
	before = enc.resets
	if _, err := st2.Present(rg.x[0], 4); err == nil {
		t.Fatal("Present on a cancelled stream succeeded")
	}
	if enc.resets != before {
		t.Fatalf("Present on a cancelled stream reset the encoder (%d -> %d)", before, enc.resets)
	}
}

func TestUsageAccumulatesAcrossResets(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t)
	s := p.NewSession()
	ctx := context.Background()
	if _, err := s.Classify(ctx, rg.x[0]); err != nil {
		t.Fatal(err)
	}
	u1 := s.Usage(true)
	if _, err := s.Classify(ctx, rg.x[1]); err != nil {
		t.Fatal(err)
	}
	u2 := s.Usage(true)
	if u2.Ticks != 2*u1.Ticks {
		t.Fatalf("ticks = %d after two presentations, want %d", u2.Ticks, 2*u1.Ticks)
	}
	if u2.SynapticEvents <= u1.SynapticEvents {
		t.Fatal("activity did not accumulate across Reset")
	}
	pu := p.Usage(true)
	if pu.Ticks != u2.Ticks || pu.Cores != rg.mapping.Stats.UsedCores {
		t.Fatalf("pipeline usage = %+v, session usage = %+v", pu, u2)
	}
}

// trafficMapping compiles a deterministic multi-core network (input ->
// a spanning two cores -> b on a third) so core-to-core routed spikes —
// and hence, on 1x1-core chips, boundary crossings — are guaranteed.
func trafficMapping(t *testing.T) *compile.Mapping {
	t.Helper()
	m := model.New()
	in := m.AddInputBank("in", 4, model.SourceProps{Type: 0, Delay: 1})
	proto := neuron.Default()
	a := m.AddPopulation("a", 300, proto)
	b := m.AddPopulation("b", 64, proto)
	for i := 0; i < 300; i++ {
		m.Connect(in.Line(i%4), a.ID(i))
		m.SourceProps(a.ID(i)).Delay = 2
		m.Connect(model.NeuronNode(a.ID(i)), b.ID(i%64))
	}
	for i := 0; i < 64; i++ {
		m.MarkOutput(b.ID(i))
	}
	mp, err := compile.Compile(m, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestWithSystemValidation(t *testing.T) {
	rg := buildRig(t)
	if _, err := New(rg.mapping, WithSystem(0, 1)); err == nil {
		t.Error("zero chip dims accepted")
	}
	w := rg.mapping.Chip.Width
	if _, err := New(rg.mapping, WithSystem(2*w, 1)); err == nil {
		t.Error("non-tiling chip dims accepted")
	}
	if _, err := New(rg.mapping, WithSystem(w, rg.mapping.Chip.Height)); err != nil {
		t.Errorf("1x1 tile rejected: %v", err)
	}
}

// TestSystemBackedClassifyBitIdentical asserts the backend-abstraction
// contract at the pipeline layer: Classify and ClassifyBatch over a
// multi-chip tile return exactly the single-chip results.
func TestSystemBackedClassifyBitIdentical(t *testing.T) {
	rg := buildRig(t)
	ctx := context.Background()
	want, err := rg.pipeline(t).ClassifyBatch(ctx, rg.x)
	if err != nil {
		t.Fatal(err)
	}
	sysP := rg.pipeline(t, WithSystem(1, 1))
	got, err := sysP.ClassifyBatch(ctx, rg.x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("image %d: system %d, chip %d", i, got[i], want[i])
		}
	}
	s := sysP.NewSession()
	for i, img := range rg.x[:4] {
		c, err := s.Classify(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		if c != want[i] {
			t.Fatalf("image %d: system session %d, chip %d", i, c, want[i])
		}
	}
}

// TestSystemTrafficAccumulates pins the session-level boundary-traffic
// accounting: identical presentations double every counter (the
// backend's traffic tally spans presentation boundaries), the pipeline
// aggregate matches, and the inter-chip spike counts flow into Usage.
func TestSystemTrafficAccumulates(t *testing.T) {
	mp := trafficMapping(t)
	p, err := New(mp, WithSystem(1, 1), WithDrain(2))
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSession()
	ctx := context.Background()
	present := func() {
		st := s.Stream(ctx)
		for _, line := range []int32{0, 1, 2, 3} {
			if err := st.Inject(line); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			if _, err := st.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	present()
	t1 := s.Traffic()
	if t1.InterChip == 0 {
		t.Fatal("multi-core rig crossed no 1x1-core chip boundary")
	}
	if t1.Chips != mp.Chip.Width*mp.Chip.Height {
		t.Fatalf("Chips = %d, want %d", t1.Chips, mp.Chip.Width*mp.Chip.Height)
	}
	present()
	t2 := s.Traffic()
	if t2.IntraChip != 2*t1.IntraChip || t2.InterChip != 2*t1.InterChip {
		t.Fatalf("identical presentations: %+v then %+v (want doubled)", t1, t2)
	}
	if t2.BusiestLink != 2*t1.BusiestLink {
		t.Fatalf("busiest link %d after two presentations, want %d", t2.BusiestLink, 2*t1.BusiestLink)
	}
	if t2.InterChipFraction != t1.InterChipFraction {
		t.Fatalf("fraction changed across identical presentations: %g -> %g",
			t1.InterChipFraction, t2.InterChipFraction)
	}

	pt := p.Traffic()
	if pt.IntraChip != t2.IntraChip || pt.InterChip != t2.InterChip || pt.BusiestLink != t2.BusiestLink {
		t.Fatalf("pipeline traffic %+v, session traffic %+v", pt, t2)
	}
	u := p.Usage(false)
	if u.IntraChipSpikes != t2.IntraChip || u.InterChipSpikes != t2.InterChip {
		t.Fatalf("usage traffic (%d,%d), session traffic %+v",
			u.IntraChipSpikes, u.InterChipSpikes, t2)
	}
	if u.InterChipFraction() != t2.InterChipFraction {
		t.Fatalf("usage fraction %g, traffic fraction %g", u.InterChipFraction(), t2.InterChipFraction)
	}
}

func TestSingleChipTrafficIsZero(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t)
	if _, err := p.Classify(context.Background(), rg.x[0]); err != nil {
		t.Fatal(err)
	}
	for _, bt := range []BoundaryTraffic{p.Traffic(), p.NewSession().Traffic()} {
		if bt.Chips != 1 || bt.InterChip != 0 || bt.InterChipFraction != 0 || bt.BusiestSrc != -1 {
			t.Fatalf("single-chip traffic = %+v", bt)
		}
	}
	if u := p.Usage(false); u.IntraChipSpikes != 0 || u.InterChipSpikes != 0 {
		t.Fatalf("single-chip usage carries traffic: %+v", u)
	}
}

// TestTrafficNotBlockedByBatch is the race-safety contract: Traffic and
// Usage may be called while a system-backed batch is mid-flight on
// other goroutines (the -race CI run keeps this honest).
func TestTrafficNotBlockedByBatch(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t, WithSystem(1, 1), WithWorkers(4))
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		_, err := p.ClassifyBatch(ctx, rg.x)
		done <- err
	}()
	for i := 0; i < 100; i++ {
		_ = p.Traffic()
		_ = p.Usage(true)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	bt := p.Traffic()
	if bt.IntraChip+bt.InterChip == 0 && rg.mapping.Stats.UsedCores > 1 {
		t.Fatal("no traffic recorded after batch")
	}
}

// chainNet builds four exactly-core-sized populations in a relay chain
// (in -> p0 -> p1 -> p2 -> p3 -> out, 1:1 wiring), so the group-level
// traffic graph is a 4-chain with equal edge weights — the instance
// where boundary-blind placement straddles a chip edge that
// boundary-aware placement can avoid at zero hop cost.
func chainNet() *model.Network {
	m := model.New()
	in := m.AddInputBank("in", 4, model.SourceProps{Type: 0, Delay: 1})
	proto := neuron.Default()
	var pops [4]*model.Population
	for pi := range pops {
		pops[pi] = m.AddPopulation(fmt.Sprintf("p%d", pi), 256, proto)
	}
	for i := 0; i < 256; i++ {
		m.Connect(in.Line(i%4), pops[0].ID(i))
		for pi := 0; pi+1 < len(pops); pi++ {
			m.Connect(model.NeuronNode(pops[pi].ID(i)), pops[pi+1].ID(i))
		}
		m.MarkOutput(pops[3].ID(i))
	}
	return m
}

// chainTraffic serves mp across a 2-chip tile (2x2 cores each), drives
// one deterministic presentation, and returns the measured boundary
// traffic plus the label stream.
func chainTraffic(t *testing.T, mp *compile.Mapping) (BoundaryTraffic, []Label) {
	t.Helper()
	p, err := New(mp, WithSystem(2, 2), WithDrain(4))
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSession()
	st := s.Stream(context.Background())
	var labels []Label
	for tick := 0; tick < 6; tick++ {
		for line := int32(0); line < 4; line++ {
			if err := st.Inject(line); err != nil {
				t.Fatal(err)
			}
		}
		ls, err := st.Tick()
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, ls...)
	}
	ls, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	labels = append(labels, ls...)
	return p.Traffic(), labels
}

// TestBoundaryAwarePlacementLowersMeasuredFraction is the end-to-end
// acceptance test for boundary-aware placement: on a 2-chip tile the
// λ>0 compile must measure a strictly lower
// Pipeline.Traffic.InterChipFraction than the λ=0 compile of the same
// network under the same workload, with bit-identical predictions, and
// the compile-time predicted fraction must agree with the measurement.
func TestBoundaryAwarePlacementLowersMeasuredFraction(t *testing.T) {
	base := compile.Options{Placer: compile.PlacerGreedy, Width: 4, Height: 2,
		ChipCoresX: 2, ChipCoresY: 2}
	blindMp, err := compile.Compile(chainNet(), base)
	if err != nil {
		t.Fatal(err)
	}
	aware := base
	aware.BoundaryWeight = 4
	awareMp, err := compile.Compile(chainNet(), aware)
	if err != nil {
		t.Fatal(err)
	}

	blind, blindLabels := chainTraffic(t, blindMp)
	opt, optLabels := chainTraffic(t, awareMp)

	if blind.InterChipFraction == 0 {
		t.Fatal("λ=0 placement crossed no boundary; instance no longer discriminates")
	}
	if opt.InterChipFraction >= blind.InterChipFraction {
		t.Fatalf("λ=4 measured fraction %g not below λ=0's %g",
			opt.InterChipFraction, blind.InterChipFraction)
	}
	// Placement never changes spike semantics: the label streams match.
	if len(blindLabels) == 0 || len(blindLabels) != len(optLabels) {
		t.Fatalf("label streams differ in length: %d vs %d", len(blindLabels), len(optLabels))
	}
	for i := range blindLabels {
		if blindLabels[i] != optLabels[i] {
			t.Fatalf("label %d differs: %+v vs %+v", i, blindLabels[i], optLabels[i])
		}
	}
	// The compiled prediction is carried into the traffic summary and
	// agrees with the measurement (equal edge weights make it exact).
	for name, pair := range map[string][2]float64{
		"blind": {blind.PredictedInterChipFraction, blind.InterChipFraction},
		"aware": {opt.PredictedInterChipFraction, opt.InterChipFraction},
	} {
		if d := pair[0] - pair[1]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: predicted %g vs measured %g", name, pair[0], pair[1])
		}
	}
}

// TestTilingMismatchRejected pins the compile/serve tiling contract: a
// mapping compiled for one tiling must not silently serve another.
func TestTilingMismatchRejected(t *testing.T) {
	mp, err := compile.Compile(chainNet(), compile.Options{Width: 4, Height: 2,
		ChipCoresX: 2, ChipCoresY: 2, BoundaryWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(mp, WithSystem(4, 2)); err == nil {
		t.Error("serving a 2x2-compiled mapping on 4x2-core chips accepted")
	}
	if _, err := New(mp, WithSystem(2, 2)); err != nil {
		t.Errorf("matching tile rejected: %v", err)
	}
	// Untiled mappings keep serving any tile.
	plain, err := compile.Compile(chainNet(), compile.Options{Width: 4, Height: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(plain, WithSystem(4, 2)); err != nil {
		t.Errorf("untiled mapping rejected on 1x1 tile: %v", err)
	}
}
