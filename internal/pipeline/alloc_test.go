package pipeline

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/neurogo/neurogo/internal/codec"
	"github.com/neurogo/neurogo/internal/compile"
	"github.com/neurogo/neurogo/internal/corelet"
	"github.com/neurogo/neurogo/internal/dataset"
	"github.com/neurogo/neurogo/internal/model"
	"github.com/neurogo/neurogo/internal/train"
)

// Allocation ceilings on the serving hot paths. Allocation counts are
// exact for a fixed rig and input, so unlike host time they can gate
// tier-1: each ceiling is the count the path makes today, and a change
// that earns a lower count lowers the ceiling with it.

// raceEnabled is set under -race (race_test.go), whose runtime
// allocates differently; the allocation ceilings skip there.
var raceEnabled bool

func checkAllocs(t *testing.T, what string, ceiling float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	if got := testing.AllocsPerRun(20, f); got > ceiling {
		t.Errorf("%s: %v allocs per run, ceiling %v", what, got, ceiling)
	}
}

// convTilePipeline serves the routed conv/pool/read-out stack on a 2x2
// chip tile (boundary-aware greedy placement, held-binary encoder) and
// returns it with one test image.
func convTilePipeline(t *testing.T) (*Pipeline, []float64) {
	t.Helper()
	const (
		imgSize = 16
		stride  = 1
		convThr = 2
		poolWin = 2
		window  = 8
	)
	gen := dataset.NewDigits(imgSize, 0.02, 2, 42)
	xtr, ytr := gen.Batch(200)
	kernels := corelet.OrientedKernels()
	convW := (imgSize-kernels[0].Size)/stride + 1
	feat := make([][]float64, len(xtr))
	for i, img := range xtr {
		f := corelet.ConvFeatures(img, imgSize, kernels, stride, convThr)
		feat[i] = corelet.FloatPool(f, len(kernels), convW, convW, poolWin)
	}
	m, err := train.TrainLinear(feat, ytr, dataset.NumClasses, train.Options{Epochs: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	net := model.New()
	conv, err := corelet.BuildConv2D(net, "conv", imgSize, imgSize, kernels, stride, convThr)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := corelet.BuildPool2D(net, conv, "pool", poolWin)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := corelet.BuildFeatureClassifier(net, m.Ternarize(1.3), pool, "out", corelet.DefaultClassifierParams())
	if err != nil {
		t.Fatal(err)
	}
	probe, err := compile.Compile(net, compile.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, h := probe.Stats.GridWidth+probe.Stats.GridWidth%2, probe.Stats.GridHeight+probe.Stats.GridHeight%2
	mp, err := compile.Compile(net, compile.Options{Seed: 1, Width: w, Height: h,
		ChipCoresX: w / 2, ChipCoresY: h / 2, BoundaryWeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(mp,
		WithEncoder(codec.NewBinary(0.5, window)),
		WithDecoder(codec.NewCounter(dataset.NumClasses)),
		WithLineMapper(TwinLines(conv.LinesFor)),
		WithClassMapper(fc.ClassOf),
		WithWindow(window),
		WithDrain(12),
		WithSystem(w/2, h/2))
	if err != nil {
		t.Fatal(err)
	}
	img, _ := gen.Batch(1)
	return p, img[0]
}

func TestClassifyAllocs(t *testing.T) {
	ctx := context.Background()
	t.Run("flat", func(t *testing.T) {
		rg := buildRig(t)
		s := rg.pipeline(t).NewSession()
		checkAllocs(t, "Session.Classify on the flat classifier", 0, func() {
			if _, err := s.Classify(ctx, rg.x[0]); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("conv-tile", func(t *testing.T) {
		p, img := convTilePipeline(t)
		s := p.NewSession()
		checkAllocs(t, "Session.Classify on the conv tile", 0, func() {
			if _, err := s.Classify(ctx, img); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestStreamTickIdleAllocs covers the per-tick streaming path on a chip
// with nothing in flight.
func TestStreamTickIdleAllocs(t *testing.T) {
	rg := buildRig(t)
	st := rg.pipeline(t).NewSession().Stream(context.Background())
	checkAllocs(t, "Stream.Tick on an idle chip", 0, func() {
		if labels, err := st.Tick(); err != nil || len(labels) != 0 {
			t.Fatalf("idle tick: labels %v, err %v", labels, err)
		}
	})
	if _, err := st.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDecisionsAllocs covers the continuous-decision path: with a
// subscriber draining Decisions, the per-decision buffering must not
// allocate once its buffers have grown. The feed waits after every tick
// until the forwarder has taken the buffered decisions, so each tick is
// its own flush — the worst case for a buffer that regrows per flush.
// The bound is the allocation difference against the same feed on an
// unsubscribed stream, so the labels Present returns cancel out.
func TestStreamDecisionsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rg := buildRig(t)
	// An ungated window emits a decision on nearly every tick.
	p := rg.pipeline(t, WithDecoder(codec.NewSlidingCounter(dataset.NumClasses, 12)))
	defer p.Close()
	const frames, ticksPer = 160, 8
	feed := func(subscribe bool) (mallocs uint64, decisions int64) {
		st := p.NewSession().Stream(context.Background())
		var n atomic.Int64
		done := make(chan struct{})
		if subscribe {
			dch := st.Decisions()
			go func() {
				for range dch {
					n.Add(1)
				}
				close(done)
			}()
		} else {
			close(done)
		}
		present := func(i int) {
			for k := 0; k < ticksPer; k++ {
				if _, err := st.Present(rg.x[i%len(rg.x)], 1); err != nil {
					t.Fatal(err)
				}
				for {
					st.decMu.Lock()
					pending := len(st.decBuf)
					st.decMu.Unlock()
					if pending == 0 {
						break
					}
					runtime.Gosched()
				}
			}
		}
		for i := 0; i < 4; i++ { // warm-up: buffers reach their size
			present(i)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < frames; i++ {
			present(i)
		}
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - before
		if _, err := st.Drain(); err != nil {
			t.Fatal(err)
		}
		<-done
		return mallocs, n.Load()
	}
	base, _ := feed(false)
	sub, decisions := feed(true)
	if decisions < 1000 {
		t.Fatalf("only %d decisions; the bound below needs at least 1000", decisions)
	}
	extra := int64(sub) - int64(base)
	t.Logf("%d decisions: %d allocations subscribed, %d unsubscribed", decisions, sub, base)
	if extra >= decisions/10 {
		t.Errorf("subscribed stream: %d extra allocations for %d decisions (unsubscribed %d), want < %d",
			extra, decisions, base, decisions/10)
	}
}
