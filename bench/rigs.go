package main

// Model rigs: the three compiled models the workloads serve. Everything
// here is fixed program configuration — training, placement and codec
// seeds never depend on -seed, which only generates the inputs. The
// recipes are the ones the root throughput benchmarks use, so numbers
// stay comparable with EXPERIMENTS.md.

import (
	"fmt"

	"github.com/neurogo/neurogo"
)

const (
	imgSize = 16
	// numInputs is how many distinct images a classifier workload
	// generates; operations cycle through them. A thousand keeps the
	// seed-to-seed spread of accuracy near 2%.
	numInputs = 1024
)

// classifyRig is a compiled classifier plus the codec configuration of
// one presentation. The staged driver needs the pieces individually; the
// pipelines get them through options.
type classifyRig struct {
	mapping       *neurogo.Mapping
	enc           neurogo.Encoder
	dec           neurogo.Decoder
	lines         neurogo.LineMapper
	classes       neurogo.ClassMapper
	window, drain int
	// noise and shift parameterise the digit generator the inputs are
	// drawn from (the distribution the model was trained on).
	noise float64
	shift int
}

// options returns the pipeline options of the rig's codec plus extra.
func (r *classifyRig) options(extra ...neurogo.PipelineOption) []neurogo.PipelineOption {
	return append([]neurogo.PipelineOption{
		neurogo.WithEncoder(r.enc),
		neurogo.WithDecoder(r.dec),
		neurogo.WithLineMapper(r.lines),
		neurogo.WithClassMapper(r.classes),
		neurogo.WithWindow(r.window),
		neurogo.WithDrain(r.drain),
	}, extra...)
}

// inputs draws the workload's digit images and labels from seed.
func (r *classifyRig) inputs(seed uint64) ([][]float64, []int) {
	return neurogo.NewDigitGenerator(imgSize, r.noise, r.shift, seed).Batch(numInputs)
}

// newFlatRig trains and compiles the 16x16 flat digit classifier
// (Bernoulli(0.5) encoder, window 16, drain 10).
func newFlatRig() (*classifyRig, error) {
	const noise, shift = 0.03, 1
	xtr, ytr := neurogo.NewDigitGenerator(imgSize, noise, shift, 42).Batch(600)
	m, err := neurogo.TrainLinear(xtr, ytr, neurogo.NumDigitClasses, neurogo.TrainOptions{Epochs: 8, Seed: 7})
	if err != nil {
		return nil, err
	}
	net := neurogo.NewNetwork()
	cls := neurogo.BuildClassifier(net, m.Ternarize(1.3), "digits", neurogo.DefaultClassifierParams())
	mapping, err := neurogo.Compile(net, neurogo.CompileOptions{Seed: 1})
	if err != nil {
		return nil, err
	}
	return &classifyRig{
		mapping: mapping,
		enc:     neurogo.NewBernoulliEncoder(0.5, 99),
		dec:     neurogo.NewCounterDecoder(neurogo.NumDigitClasses),
		lines:   neurogo.TwinLines(cls.LinesFor),
		classes: cls.ClassOf,
		window:  16, drain: 10,
		noise: noise, shift: shift,
	}, nil
}

// newConvRig trains and compiles the conv/pool/read-out stack for a 2x2
// chip tile with the boundary-aware annealer (λ=4), held-binary encoder,
// window 8, drain 12. With padded set it compiles the delay-padded twin
// instead (neuron delays padded to 5, delay-aware placement), whose
// minimum boundary delay of 4 ticks lets shards run 4-tick exchange
// windows.
func newConvRig(padded bool) (*classifyRig, error) {
	const (
		noise, shift = 0.02, 2
		stride       = 1
		convThr      = 2
		poolWin      = 2
		window       = 8
	)
	xtr, ytr := neurogo.NewDigitGenerator(imgSize, noise, shift, 42).Batch(400)
	kernels := neurogo.OrientedKernels()
	convW := (imgSize-kernels[0].Size)/stride + 1
	feat := make([][]float64, len(xtr))
	for i, img := range xtr {
		f := neurogo.ConvFeatures(img, imgSize, kernels, stride, convThr)
		feat[i] = neurogo.FloatPool(f, len(kernels), convW, convW, poolWin)
	}
	m, err := neurogo.TrainLinear(feat, ytr, neurogo.NumDigitClasses, neurogo.TrainOptions{Epochs: 8, Seed: 7})
	if err != nil {
		return nil, err
	}
	net := neurogo.NewNetwork()
	conv, err := neurogo.BuildConv2D(net, "conv", imgSize, imgSize, kernels, stride, convThr)
	if err != nil {
		return nil, err
	}
	pool, err := neurogo.BuildPool2D(net, conv, "pool", poolWin)
	if err != nil {
		return nil, err
	}
	fc, err := neurogo.BuildFeatureClassifier(net, m.Ternarize(1.3), pool, "out", neurogo.DefaultClassifierParams())
	if err != nil {
		return nil, err
	}
	// Probe compile to learn the grid, then force an even grid that
	// splits into a 2x2 chip tile.
	probe, err := neurogo.Compile(net, neurogo.CompileOptions{Seed: 1})
	if err != nil {
		return nil, err
	}
	st := probe.Stats
	w, h := st.GridWidth+st.GridWidth%2, st.GridHeight+st.GridHeight%2
	opt := neurogo.CompileOptions{
		Placer: neurogo.PlacerAnneal, AnnealIters: 30000, Seed: 1,
		Width: w, Height: h, ChipCoresX: w / 2, ChipCoresY: h / 2,
		BoundaryWeight: 4,
	}
	if padded {
		net.PadNeuronDelays(5)
		opt.Seed = 2
		opt.DelayPenalty = 8
	}
	mapping, err := neurogo.Compile(net, opt)
	if err != nil {
		return nil, err
	}
	if padded && neurogo.MaxExchangeWindow(mapping) < 2 {
		return nil, fmt.Errorf("padded conv mapping proves no multi-tick exchange window (min boundary delay %d)", mapping.Stats.MinBoundaryDelay)
	}
	return &classifyRig{
		mapping: mapping,
		enc:     neurogo.NewBinaryEncoder(0.5, window),
		dec:     neurogo.NewCounterDecoder(neurogo.NumDigitClasses),
		lines:   neurogo.TwinLines(conv.LinesFor),
		classes: fc.ClassOf,
		window:  window, drain: 12,
		noise: noise, shift: shift,
	}, nil
}

// keywordRig is the compiled 16-line pattern detector and the decision
// rule of the keyword-spotting stream.
type keywordRig struct {
	mapping *neurogo.Mapping
	pat     *neurogo.Pattern
	inFirst int32            // first physical input line of the detector
	out     neurogo.NeuronID // the detector neuron
}

const (
	ticksPerOp    = 1000
	keywordOps    = 512 // distinct operations' worth of generated stream
	decisionWin   = 2   // SlidingCounter window: a decision at t covers fires at t-1 and t
	motifRate     = 0.02
	motifMinGap   = 20
	motifMaxGap   = 60
	keywordPeriod = keywordOps * ticksPerOp // ticks of generated stream; ops cycle through it
)

func newKeywordRig() (*keywordRig, error) {
	pat := neurogo.NewPattern(16, 10, 5, 99)
	net := neurogo.NewNetwork()
	pd, err := neurogo.BuildPatternDetector(net, pat, 5)
	if err != nil {
		return nil, err
	}
	mapping, err := neurogo.Compile(net, neurogo.CompileOptions{Seed: 1})
	if err != nil {
		return nil, err
	}
	return &keywordRig{mapping: mapping, pat: pat, inFirst: pd.In.First, out: pd.Out.First}, nil
}

// classOf maps the detector neuron to class 0 and drops everything else.
func (r *keywordRig) classOf(id neurogo.NeuronID) int {
	if id == r.out {
		return 0
	}
	return -1
}

// pipeline builds the keyword serving pipeline: no encoder (raw line
// injection), a 1-class sliding counter that decides on any spike.
func (r *keywordRig) pipeline() (*neurogo.Pipeline, error) {
	dec := neurogo.NewSlidingCounterDecoder(1, decisionWin)
	dec.MinCount = 1
	return neurogo.NewPipeline(r.mapping, neurogo.WithDecoder(dec), neurogo.WithClassMapper(r.classOf))
}

// motifInput is the generated keyword stream, one period long, in CSR
// form: tick t spikes on lines[off[t]:off[t+1]]; ends lists the ticks
// that complete an embedded motif.
type motifInput struct {
	off   []int32
	lines []int32 // physical input lines
	ends  []int64
}

// tick returns the physical lines that spike at tick t of the period.
func (in *motifInput) tick(t int) []int32 { return in.lines[in.off[t]:in.off[t+1]] }

func (r *keywordRig) inputs(seed uint64) *motifInput {
	ms := neurogo.NewMotifStream(r.pat, motifRate, motifMinGap, motifMaxGap, seed)
	in := &motifInput{off: make([]int32, 1, keywordPeriod+1)}
	for t := 0; t < keywordPeriod; t++ {
		spikes, end := ms.Tick()
		for _, l := range spikes {
			in.lines = append(in.lines, r.inFirst+int32(l))
		}
		in.off = append(in.off, int32(len(in.lines)))
		if end {
			in.ends = append(in.ends, int64(t))
		}
	}
	return in
}
