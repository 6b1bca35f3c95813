package neurogo

import (
	"context"
	"testing"
)

// equivRig compiles a small spiking digit classifier through the public
// API, plus test images.
type equivRig struct {
	cls     *Classifier
	mapping *Mapping
	// sysMapping is the same network compiled onto an even grid, so it
	// tiles exactly into 2x2 physical chips for the multi-chip tests.
	sysMapping *Mapping
	x          [][]float64
	y          []int
}

func buildEquivRig(t *testing.T) *equivRig {
	t.Helper()
	gen := NewDigitGenerator(8, 0.02, 0, 3)
	xtr, ytr := gen.Batch(300)
	m, err := TrainLinear(xtr, ytr, NumDigitClasses, TrainOptions{Epochs: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork()
	cls := BuildClassifier(net, m.Ternarize(1.3), "d", ClassifierParams{Threshold: 4, Decay: 1})
	mapping, err := Compile(net, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gw, gh := mapping.Stats.GridWidth+mapping.Stats.GridWidth%2, mapping.Stats.GridHeight+mapping.Stats.GridHeight%2
	sysMapping, err := Compile(net, CompileOptions{Width: gw, Height: gh})
	if err != nil {
		t.Fatal(err)
	}
	x, y := gen.Batch(16)
	return &equivRig{cls: cls, mapping: mapping, sysMapping: sysMapping, x: x, y: y}
}

// handWired classifies one image with the pre-pipeline idiom: a fresh
// runner, an encoder restarted from its seed, and a manual
// encode/inject/step/decode loop.
func (rg *equivRig) handWired(img []float64, engine Engine, workers, window, drain int) int {
	r := NewRunner(rg.mapping, engine, workers)
	enc := NewBernoulliEncoder(0.5, 7)
	counter := NewCounterDecoder(NumDigitClasses)
	observe := func(evs []Event) {
		for _, e := range evs {
			if c := rg.cls.ClassOf(e.Neuron); c >= 0 {
				counter.Observe(c)
			}
		}
	}
	for t := 0; t < window; t++ {
		enc.Tick(img, func(line int) {
			pos, neg := rg.cls.LinesFor(line)
			_ = r.InjectLine(pos)
			_ = r.InjectLine(neg)
		})
		observe(r.Step())
	}
	observe(r.Drain(drain))
	return counter.Argmax()
}

// TestPipelineMatchesHandWiredLoop asserts Pipeline.Classify is
// bit-identical to the hand-wired encoder/runner/decoder loop on both
// engines, and that a session stays bit-identical across
// repeated Reset reuse.
func TestPipelineMatchesHandWiredLoop(t *testing.T) {
	const window, drain = 16, 10
	rg := buildEquivRig(t)
	cases := []struct {
		name    string
		engine  Engine
		workers int
	}{
		{"event", EngineEvent, 1},
		{"parallel", EngineParallel, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPipeline(rg.mapping,
				WithEngine(tc.engine),
				WithEngineWorkers(tc.workers),
				WithEncoder(NewBernoulliEncoder(0.5, 7)),
				WithDecoder(NewCounterDecoder(NumDigitClasses)),
				WithLineMapper(TwinLines(rg.cls.LinesFor)),
				WithClassMapper(rg.cls.ClassOf),
				WithWindow(window),
				WithDrain(drain))
			if err != nil {
				t.Fatal(err)
			}
			s := p.NewSession()
			for pass := 0; pass < 2; pass++ { // pass 1 re-uses the session via Reset
				for i, img := range rg.x {
					got, err := s.Classify(context.Background(), img)
					if err != nil {
						t.Fatal(err)
					}
					want := rg.handWired(img, tc.engine, tc.workers, window, drain)
					if got != want {
						t.Fatalf("pass %d image %d: pipeline %d, hand-wired %d", pass, i, got, want)
					}
				}
			}
		})
	}
}

// TestClassifyBatchBitIdentical asserts the acceptance criterion:
// fanning a batch across >= 8 concurrent sessions returns exactly the
// sequential single-session results.
func TestClassifyBatchBitIdentical(t *testing.T) {
	rg := buildEquivRig(t)
	ctx := context.Background()
	mk := func(workers int) *Pipeline {
		p, err := NewPipeline(rg.mapping,
			WithWorkers(workers),
			WithEncoder(NewBernoulliEncoder(0.5, 7)),
			WithDecoder(NewCounterDecoder(NumDigitClasses)),
			WithLineMapper(TwinLines(rg.cls.LinesFor)),
			WithClassMapper(rg.cls.ClassOf),
			WithWindow(16),
			WithDrain(10))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want, err := mk(1).ClassifyBatch(ctx, rg.x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mk(8).ClassifyBatch(ctx, rg.x)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("image %d: pooled %d, sequential %d", i, got[i], want[i])
		}
		if got[i] == rg.y[i] {
			hits++
		}
	}
	if hits < len(rg.x)*2/3 {
		t.Fatalf("classifier got %d/%d on easy digits; pipeline is mis-wired", hits, len(rg.x))
	}
}

// TestSystemBackedEquivalence asserts the multi-chip acceptance
// criterion through the public API: a pipeline served across a 2x2
// chip tile returns predictions bit-identical to the single-chip
// backend for Classify, ClassifyBatch and Async, under both engines —
// tiling changes accounting, never routing semantics.
func TestSystemBackedEquivalence(t *testing.T) {
	rg := buildEquivRig(t)
	ctx := context.Background()
	gw, gh := rg.sysMapping.Stats.GridWidth, rg.sysMapping.Stats.GridHeight
	mk := func(opts ...PipelineOption) *Pipeline {
		base := []PipelineOption{
			WithEncoder(NewBernoulliEncoder(0.5, 7)),
			WithDecoder(NewCounterDecoder(NumDigitClasses)),
			WithLineMapper(TwinLines(rg.cls.LinesFor)),
			WithClassMapper(rg.cls.ClassOf),
			WithWindow(16),
			WithDrain(10),
		}
		p, err := NewPipeline(rg.sysMapping, append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		engine  Engine
		workers int
	}{
		{"event", EngineEvent, 1},
		{"parallel", EngineParallel, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := []PipelineOption{WithEngine(tc.engine), WithEngineWorkers(tc.workers)}
			want, err := mk(eng...).ClassifyBatch(ctx, rg.x)
			if err != nil {
				t.Fatal(err)
			}
			sysP := mk(append(eng, WithSystem(gw/2, gh/2))...)
			got, err := sysP.ClassifyBatch(ctx, rg.x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("batch image %d: system %d, chip %d", i, got[i], want[i])
				}
			}
			if bt := PipelineTrafficOf(sysP); bt.Chips != 4 {
				t.Fatalf("tile has %d chips, want 4", bt.Chips)
			}

			// Shared-session Classify.
			sysC := mk(append(eng, WithSystem(gw/2, gh/2))...)
			for i, img := range rg.x {
				c, err := sysC.Classify(ctx, img)
				if err != nil {
					t.Fatal(err)
				}
				if c != want[i] {
					t.Fatalf("image %d: system Classify %d, chip %d", i, c, want[i])
				}
			}

			// Async over the tile, re-ordered by Seq.
			ap, err := mk(append(eng, WithSystem(gw/2, gh/2))...).Async(WithAsyncWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			results := ap.Results()
			for _, img := range rg.x {
				ap.Submit(ctx, img)
			}
			ap.Close()
			for r := range results {
				if r.Err != nil {
					t.Fatalf("seq %d: %v", r.Seq, r.Err)
				}
				if r.Class != want[r.Seq] {
					t.Fatalf("async input %d: system %d, chip %d", r.Seq, r.Class, want[r.Seq])
				}
			}
		})
	}
}

// TestOneByOneTileHasNoBoundaryTraffic pins the degenerate tiling: a
// 1x1 tile (the whole grid on one physical chip) classifies routed
// spikes but never records a crossing.
func TestOneByOneTileHasNoBoundaryTraffic(t *testing.T) {
	rg := buildEquivRig(t)
	gw, gh := rg.sysMapping.Stats.GridWidth, rg.sysMapping.Stats.GridHeight
	p, err := NewPipeline(rg.sysMapping,
		WithEncoder(NewBernoulliEncoder(0.5, 7)),
		WithDecoder(NewCounterDecoder(NumDigitClasses)),
		WithLineMapper(TwinLines(rg.cls.LinesFor)),
		WithClassMapper(rg.cls.ClassOf),
		WithSystem(gw, gh))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ClassifyBatch(context.Background(), rg.x); err != nil {
		t.Fatal(err)
	}
	bt := PipelineTrafficOf(p)
	if bt.Chips != 1 {
		t.Fatalf("1x1 tile has %d chips", bt.Chips)
	}
	if bt.InterChip != 0 || bt.InterChipFraction != 0 || bt.BusiestLink != 0 {
		t.Fatalf("1x1 tile recorded boundary traffic: %+v", bt)
	}
	if u := PipelineUsageOf(p, false); u.InterChipSpikes != 0 || u.InterChipFraction() != 0 {
		t.Fatalf("1x1 tile usage carries inter-chip spikes: %+v", u)
	}
}

// TestAsyncBitIdentical asserts the async acceptance criterion through
// the public API: results collected from the AsyncPipeline stream and
// re-ordered by sequence number are bit-identical to sequential
// Classify on the same inputs.
func TestAsyncBitIdentical(t *testing.T) {
	rg := buildEquivRig(t)
	ctx := context.Background()
	mk := func() *Pipeline {
		p, err := NewPipeline(rg.mapping,
			WithEncoder(NewBernoulliEncoder(0.5, 7)),
			WithDecoder(NewCounterDecoder(NumDigitClasses)),
			WithLineMapper(TwinLines(rg.cls.LinesFor)),
			WithClassMapper(rg.cls.ClassOf),
			WithWindow(16),
			WithDrain(10))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	seq := mk()
	want := make([]int, len(rg.x))
	for i, img := range rg.x {
		c, err := seq.Classify(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}

	ap, err := mk().Async(WithAsyncWorkers(8), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	results := ap.Results()
	for _, img := range rg.x {
		ap.Submit(ctx, img)
	}
	ap.Close()
	got := make([]int, len(rg.x))
	n := 0
	for r := range results {
		if r.Err != nil {
			t.Fatalf("seq %d: %v", r.Seq, r.Err)
		}
		got[r.Seq] = r.Class
		n++
	}
	if n != len(rg.x) {
		t.Fatalf("async stream delivered %d results, want %d", n, len(rg.x))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("input %d: async %d, sequential %d", i, got[i], want[i])
		}
	}
}
