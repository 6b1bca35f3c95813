package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/neurogo/neurogo/internal/codec"
	"github.com/neurogo/neurogo/internal/compile"
	"github.com/neurogo/neurogo/internal/corelet"
	"github.com/neurogo/neurogo/internal/dataset"
	"github.com/neurogo/neurogo/internal/energy"
	"github.com/neurogo/neurogo/internal/model"
	"github.com/neurogo/neurogo/internal/pipeline"
	"github.com/neurogo/neurogo/internal/report"
	"github.com/neurogo/neurogo/internal/train"
)

// classifierRig bundles a compiled spiking classifier ready to present
// images to.
type classifierRig struct {
	cls     *corelet.Classifier
	mapping *compile.Mapping
	model   *train.LinearModel
	tern    *train.TernaryModel
	xte     [][]float64
	yte     []int
}

// buildClassifierRig trains, quantises and compiles the digit classifier.
func buildClassifierRig(nTrain, nTest int, seed uint64) *classifierRig {
	gen := dataset.NewDigits(16, 0.03, 1, seed)
	xtr, ytr := gen.Batch(nTrain)
	xte, yte := gen.Batch(nTest)
	m, err := train.TrainLinear(xtr, ytr, dataset.NumClasses, train.Options{Epochs: 12, Seed: seed})
	if err != nil {
		panic(err)
	}
	tern := m.Ternarize(1.3)
	net := model.New()
	cls := corelet.BuildClassifier(net, tern, "digits", corelet.DefaultClassifierParams())
	mp, err := compile.Compile(net, compile.Options{Seed: seed})
	if err != nil {
		panic(err)
	}
	return &classifierRig{cls: cls, mapping: mp, model: m, tern: tern, xte: xte, yte: yte}
}

// newPipeline builds the rig's serving pipeline on the default event
// engine: Bernoulli rate code in, spike-count decode out, a 10-tick
// drain as the decay gap.
func (rig *classifierRig) newPipeline(window int) *pipeline.Pipeline {
	p, err := pipeline.New(rig.mapping,
		pipeline.WithEncoder(codec.NewBernoulli(0.5, 42)),
		pipeline.WithDecoder(codec.NewCounter(dataset.NumClasses)),
		pipeline.WithLineMapper(pipeline.TwinLines(rig.cls.LinesFor)),
		pipeline.WithClassMapper(rig.cls.ClassOf),
		pipeline.WithWindow(window),
		pipeline.WithDrain(10))
	if err != nil {
		panic(err)
	}
	return p
}

// spikingAccuracy classifies the rig's test set at the given window,
// fanning images across the pipeline's session pool.
func (rig *classifierRig) spikingAccuracy(window int) (acc float64, counters energy.Usage) {
	p := rig.newPipeline(window)
	preds, err := p.ClassifyBatch(context.Background(), rig.xte)
	if err != nil {
		panic(err)
	}
	hits := 0
	for i, pred := range preds {
		if pred == rig.yte[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(rig.xte)), p.Usage(true)
}

// T3Classification regenerates the application table: accuracy and
// energy per classification for float baseline, direct ternary, spiking
// deployment and ternary committee.
func T3Classification(quick bool) Result {
	nTrain, nTest, window := 2048, 512, 16
	if quick {
		nTrain, nTest, window = 512, 96, 16
	}
	rig := buildClassifierRig(nTrain, nTest, 1234)

	floatAcc := rig.model.Accuracy(rig.xte, rig.yte)
	ternAcc := rig.tern.Accuracy(rig.xte, rig.yte)
	com := train.NewCommittee(rig.model, 5, 1.6, 77)
	comAcc := com.Accuracy(rig.xte, rig.yte)
	spikeAcc, used := rig.spikingAccuracy(window)

	coef := energy.DefaultCoefficients()
	r := coef.Evaluate(used)
	perImage := r.TotalPJ / float64(nTest)

	convU := used
	convU.Cores = 1
	convU.Hops = 0
	conv := energy.ConventionalCoefficients().Evaluate(convU)
	convPerImage := conv.TotalPJ / float64(nTest)

	spikesPerImage := float64(used.Spikes) / float64(nTest)

	tb := report.NewTable(
		fmt.Sprintf("Digit classification (16x16 synthetic digits, %d train / %d test, %d-tick window)", nTrain, nTest, window),
		"deployment", "accuracy", "energy/classification (nJ)", "spikes/classification")
	tb.AddRow("float linear (offline baseline)", report.F(floatAcc), "-", "-")
	tb.AddRow("ternary direct (infinite window)", report.F(ternAcc), "-", "-")
	tb.AddRow("ternary committee x5 (direct)", report.F(comAcc), "-", "-")
	tb.AddRow("spiking chip (event engine)", report.F(spikeAcc), report.F(perImage*1e-3), report.F(spikesPerImage))
	tb.AddRow("conventional sim (same workload)", report.F(spikeAcc), report.F(convPerImage*1e-3), report.F(spikesPerImage))

	var b strings.Builder
	tb.Render(&b)
	fmt.Fprintf(&b, "\nCompiled onto %d cores (%d relays). Paper shape: ternary deployment\n",
		rig.mapping.Stats.UsedCores, rig.mapping.Stats.Relays)
	fmt.Fprintf(&b, "costs a few accuracy points vs float, committees claw most of it back,\n")
	fmt.Fprintf(&b, "and the chip spends orders of magnitude less energy per classification.\n")
	return Result{
		ID:    "T3",
		Title: "Application accuracy and energy per classification",
		Text:  b.String(),
		Metrics: map[string]float64{
			"float_acc":         floatAcc,
			"ternary_acc":       ternAcc,
			"committee_acc":     comAcc,
			"spiking_acc":       spikeAcc,
			"nj_per_image":      perImage * 1e-3,
			"conventional_gain": convPerImage / perImage,
		},
	}
}

// F5Window regenerates the latency-accuracy trade-off figure: spiking
// accuracy vs observation window.
func F5Window(quick bool) Result {
	nTrain, nTest := 1024, 200
	windows := []int{1, 2, 4, 8, 16, 32}
	if quick {
		nTrain, nTest = 512, 64
		windows = []int{1, 4, 16}
	}
	rig := buildClassifierRig(nTrain, nTest, 1234)
	ternAcc := rig.tern.Accuracy(rig.xte, rig.yte)

	tb := report.NewTable("Accuracy vs observation window (spiking deployment)",
		"window (ticks)", "accuracy", "fraction of direct-ternary accuracy")
	var xs, ys []float64
	for _, w := range windows {
		acc, _ := rig.spikingAccuracy(w)
		tb.AddRow(report.I(int64(w)), report.F(acc), report.F(acc/ternAcc))
		xs = append(xs, float64(w))
		ys = append(ys, acc)
	}
	var b strings.Builder
	tb.Render(&b)
	b.WriteByte('\n')
	b.WriteString(report.Chart("accuracy vs window (ticks)",
		[]report.Series{{Name: "spiking", X: xs, Y: ys}}, 56, 12))
	fmt.Fprintf(&b, "\nDirect ternary (infinite window) accuracy: %s.\n", report.F(ternAcc))
	fmt.Fprintf(&b, "Paper shape: accuracy rises steeply with window then saturates —\n")
	fmt.Fprintf(&b, "the latency/accuracy knob of rate-coded inference.\n")
	return Result{
		ID:    "F5",
		Title: "Latency-accuracy trade-off",
		Text:  b.String(),
		Metrics: map[string]float64{
			"acc_first_window": ys[0],
			"acc_last_window":  ys[len(ys)-1],
			"ternary_acc":      ternAcc,
		},
	}
}

// F7Detector regenerates the end-to-end detection figure: precision and
// recall of the multi-object detector as its threshold sweeps.
func F7Detector(quick bool) Result {
	const cellsX, cellsY, cellPix = 4, 4, 7
	frames := 60
	if quick {
		frames = 16
	}
	thresholds := []int32{4, 6, 8, 10, 12}
	tb := report.NewTable(
		fmt.Sprintf("Multi-object detection (%dx%d cells, %d frames, plus-shaped objects, 2%% speckle)", cellsX, cellsY, frames),
		"threshold", "precision", "recall", "F1")
	var xs, precY, recY []float64
	bestF1 := 0.0
	for _, th := range thresholds {
		net := model.New()
		det := corelet.BuildDetector(net, cellsX, cellsY, cellPix, th)
		mp, err := compile.Compile(net, compile.Options{})
		if err != nil {
			panic(err)
		}
		p, err := pipeline.New(mp,
			pipeline.WithEncoder(codec.NewBinary(0.5, 1)),
			pipeline.WithLineMapper(pipeline.TwinLines(det.LinesFor)),
			pipeline.WithClassMapper(det.CellOf))
		if err != nil {
			panic(err)
		}
		stream := p.NewSession().Stream(context.Background())
		scenes := dataset.NewScenes(cellsX, cellsY, cellPix, 0.3, 0.02, 42)
		tp, fp, fn := 0, 0, 0
		for f := 0; f < frames; f++ {
			pixels, truth := scenes.Frame()
			labels, err := stream.Present(pixels, 6)
			if err != nil {
				panic(err)
			}
			fired := make([]bool, cellsX*cellsY)
			for _, l := range labels {
				if l.Class >= 0 {
					fired[l.Class] = true
				}
			}
			for c := range truth {
				switch {
				case fired[c] && truth[c]:
					tp++
				case fired[c] && !truth[c]:
					fp++
				case !fired[c] && truth[c]:
					fn++
				}
			}
		}
		prec := safeDiv(float64(tp), float64(tp+fp))
		rec := safeDiv(float64(tp), float64(tp+fn))
		f1 := safeDiv(2*prec*rec, prec+rec)
		if f1 > bestF1 {
			bestF1 = f1
		}
		tb.AddRow(report.I(int64(th)), report.F(prec), report.F(rec), report.F(f1))
		xs = append(xs, float64(th))
		precY = append(precY, prec)
		recY = append(recY, rec)
	}
	var b strings.Builder
	tb.Render(&b)
	b.WriteByte('\n')
	b.WriteString(report.Chart("precision/recall vs threshold",
		[]report.Series{{Name: "precision", X: xs, Y: precY}, {Name: "recall", X: xs, Y: recY}}, 56, 12))
	fmt.Fprintf(&b, "\nPaper shape: threshold sweeps trade recall for precision; template\n")
	fmt.Fprintf(&b, "matching in the crossbar detects all objects in parallel in O(1) ticks.\n")
	return Result{
		ID:    "F7",
		Title: "End-to-end multi-object detection",
		Text:  b.String(),
		Metrics: map[string]float64{
			"best_f1": bestF1,
		},
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
