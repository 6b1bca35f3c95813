package neurogo

// One benchmark per reconstructed table and figure (see DESIGN.md §3 and
// EXPERIMENTS.md). Each bench executes its experiment end to end and
// reports the experiment's headline metrics through b.ReportMetric, so
// `go test -bench=.` regenerates the whole evaluation:
//
//	go test -bench=BenchmarkT3 -benchmem   # one experiment
//	go test -bench=. -benchmem             # all of them
//
// Benches run the quick configurations; cmd/npaper runs the full ones.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/neurogo/neurogo/internal/experiments"
)

// benchExperiment runs one experiment per iteration and republishes its
// metrics.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, true)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for k, v := range last.Metrics {
		b.ReportMetric(v, k)
	}
}

// BenchmarkT1Capacity regenerates the capacity/memory table (T1).
func BenchmarkT1Capacity(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkF1Behaviors regenerates the neuron behaviour gallery (F1).
func BenchmarkF1Behaviors(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkT2Energy regenerates the chip power / pJ-per-event table (T2).
func BenchmarkT2Energy(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkF2PowerSweep regenerates power vs firing rate (F2).
func BenchmarkF2PowerSweep(b *testing.B) { benchExperiment(b, "F2") }

// BenchmarkF3NoCLatency regenerates NoC latency vs injection rate (F3).
func BenchmarkF3NoCLatency(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkF4Locality regenerates the placement hop-distribution figure (F4).
func BenchmarkF4Locality(b *testing.B) { benchExperiment(b, "F4") }

// BenchmarkT3Classification regenerates the application accuracy/energy
// table (T3).
func BenchmarkT3Classification(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkF5Window regenerates the latency-accuracy trade-off (F5).
func BenchmarkF5Window(b *testing.B) { benchExperiment(b, "F5") }

// BenchmarkT4Engines regenerates the engine-throughput comparison (T4).
func BenchmarkT4Engines(b *testing.B) { benchExperiment(b, "T4") }

// BenchmarkF6Scaling regenerates throughput vs core count (F6).
func BenchmarkF6Scaling(b *testing.B) { benchExperiment(b, "F6") }

// BenchmarkT5Placement regenerates the placement ablation table (T5).
func BenchmarkT5Placement(b *testing.B) { benchExperiment(b, "T5") }

// BenchmarkF7Detector regenerates the detector precision/recall sweep (F7).
func BenchmarkF7Detector(b *testing.B) { benchExperiment(b, "F7") }

// BenchmarkE1Conv regenerates the conv-stack extension comparison (E1).
func BenchmarkE1Conv(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2System regenerates the multi-chip boundary-traffic
// extension (E2).
func BenchmarkE2System(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Boundary regenerates the boundary-aware placement
// ablation (E3): the λ sweep tracing inter-chip fraction vs hop cost.
func BenchmarkE3Boundary(b *testing.B) { benchExperiment(b, "E3") }

// throughputRig caches one compiled digit classifier across the
// saturation and streaming sub-benchmarks.
var throughputRig struct {
	once    sync.Once
	cls     *Classifier
	mapping *Mapping
	x       [][]float64
	err     error
}

func throughputSetup() error {
	throughputRig.once.Do(func() {
		gen := NewDigitGenerator(16, 0.03, 1, 42)
		xtr, ytr := gen.Batch(600)
		m, err := TrainLinear(xtr, ytr, NumDigitClasses, TrainOptions{Epochs: 8, Seed: 7})
		if err != nil {
			throughputRig.err = err
			return
		}
		net := NewNetwork()
		throughputRig.cls = BuildClassifier(net, m.Ternarize(1.3), "digits", DefaultClassifierParams())
		throughputRig.mapping, throughputRig.err = Compile(net, CompileOptions{Seed: 1})
		throughputRig.x, _ = gen.Batch(64)
	})
	return throughputRig.err
}

// throughputPipeline builds the digit-serving pipeline the saturation
// ladder serves.
func throughputPipeline() (*Pipeline, error) {
	return NewPipeline(throughputRig.mapping,
		WithEncoder(NewBernoulliEncoder(0.5, 99)),
		WithDecoder(NewCounterDecoder(NumDigitClasses)),
		WithLineMapper(TwinLines(throughputRig.cls.LinesFor)),
		WithClassMapper(throughputRig.cls.ClassOf),
		WithWindow(16),
		WithDrain(10))
}

// saturationBase caches the sequential service rate (class/s on one
// session) that every offered-load level is derived from.
var saturationBase struct {
	once   sync.Once
	perSec float64
	err    error
}

func saturationCapacity() (float64, error) {
	saturationBase.once.Do(func() {
		p, err := throughputPipeline()
		if err != nil {
			saturationBase.err = err
			return
		}
		defer p.Close()
		ctx := context.Background()
		const n = 64
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := p.Classify(ctx, throughputRig.x[i%len(throughputRig.x)]); err != nil {
				saturationBase.err = err
				return
			}
		}
		saturationBase.perSec = float64(n) / time.Since(start).Seconds()
	})
	return saturationBase.perSec, saturationBase.err
}

// saturationLevel offers n requests at `rate` per second (paced in 1 ms
// bursts, open loop until backpressure closes it) through a fresh async
// front-end and returns the delivered rate plus the metrics snapshot.
func saturationLevel(b *testing.B, opts []AsyncOption, rate float64, n int) (float64, ServingMetrics) {
	b.Helper()
	p, err := throughputPipeline()
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ap, err := p.Async(opts...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	inputs := throughputRig.x
	chans := make([]<-chan AsyncResult, n)
	interval := float64(time.Second) / rate
	start := time.Now()
	for i := 0; i < n; i++ {
		if target := time.Duration(float64(i) * interval); target > time.Since(start) {
			time.Sleep(target - time.Since(start))
		}
		chans[i] = ap.Submit(ctx, inputs[i%len(inputs)])
	}
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	delivered := float64(n) / time.Since(start).Seconds()
	m := ap.Metrics()
	ap.Close()
	return delivered, m
}

// BenchmarkSaturation is the SLO-serving headline (EXPERIMENTS.md E6):
// it ramps offered load through the async front-end and reports the
// best delivered class/s whose end-to-end p99 stays inside a fixed
// 10 ms SLO — batch-1 serving vs the adaptive micro-batcher (greedy
// and windowed), same worker pool and queue either way. Run it with
// -benchtime 1x (CI does); the ladder inside one iteration is the
// whole experiment.
func BenchmarkSaturation(b *testing.B) {
	if err := throughputSetup(); err != nil {
		b.Fatal(err)
	}
	base, err := saturationCapacity()
	if err != nil {
		b.Fatal(err)
	}
	const (
		sloP99   = 10 * time.Millisecond
		perLevel = 512
		trials   = 3 // median-of-3 p99 rides out scheduler jitter
		workers  = 4
		queue    = 256
	)
	shared := []AsyncOption{WithAsyncWorkers(workers), WithQueueDepth(queue)}
	// The batch-window sweep E6 documents: the 200 µs window is the
	// adaptive sweet spot on this workload — long enough to coalesce a
	// backlog into chunked fan-outs (amortised handoffs), short next to
	// the 10 ms SLO. Window 0 (greedy) never waits but barely coalesces;
	// 1 ms batches harder at a visible latency cost.
	modes := []struct {
		name string
		opts []AsyncOption
	}{
		{"batch-1", shared},
		{"adaptive", append([]AsyncOption{WithMaxBatch(64), WithBatchWindow(200 * time.Microsecond)}, shared...)},
		{"adaptive-greedy", append([]AsyncOption{WithMaxBatch(64)}, shared...)},
		{"adaptive-w1ms", append([]AsyncOption{WithMaxBatch(64), WithBatchWindow(time.Millisecond)}, shared...)},
	}
	ladder := []float64{0.75, 0.85, 0.92, 0.97, 1.01}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			var bestRate, bestBatch float64
			var bestP99 time.Duration
			for i := 0; i < b.N; i++ {
				bestRate, bestBatch, bestP99 = 0, 0, 0
				for _, mult := range ladder {
					offered := base * mult
					// Median trial by p99: one descheduling hiccup on a
					// shared box otherwise decides the whole level.
					type trial struct {
						delivered float64
						m         ServingMetrics
					}
					ts := make([]trial, trials)
					for k := range ts {
						runtime.GC()
						ts[k].delivered, ts[k].m = saturationLevel(b, mode.opts, offered, perLevel)
					}
					sort.Slice(ts, func(i, j int) bool { return ts[i].m.EndToEnd.P99 < ts[j].m.EndToEnd.P99 })
					delivered, m := ts[trials/2].delivered, ts[trials/2].m
					p99 := m.EndToEnd.P99
					if testing.Verbose() {
						b.Logf("offered %.0f/s: delivered %.0f/s, p99 %v, mean batch %.1f",
							offered, delivered, p99, m.MeanBatch)
					}
					if p99 <= sloP99 && delivered > bestRate {
						bestRate, bestP99, bestBatch = delivered, p99, m.MeanBatch
					}
				}
			}
			if bestRate == 0 {
				// Report zero rather than failing: the sweep legs are
				// informational, and a descheduling storm on a shared
				// box can push every level past the SLO.
				b.Logf("no load level met the %v p99 SLO", sloP99)
			}
			b.ReportMetric(bestRate, "class/s@p99")
			b.ReportMetric(float64(bestP99.Microseconds())/1000, "p99-ms")
			if bestBatch > 0 {
				b.ReportMetric(bestBatch, "mean-batch")
			}
		})
	}
}

// streamingPipeline builds a digit pipeline with a sliding-window
// decoder over the cached throughput mapping — the rig the streaming
// legs share.
func streamingPipeline(window int) (*Pipeline, error) {
	return NewPipeline(throughputRig.mapping,
		WithEncoder(NewBernoulliEncoder(0.5, 99)),
		WithDecoder(NewSlidingCounterDecoder(NumDigitClasses, window)),
		WithLineMapper(TwinLines(throughputRig.cls.LinesFor)),
		WithClassMapper(throughputRig.cls.ClassOf),
		WithWindow(window),
		WithDrain(10))
}

// BenchmarkStreamingThroughput is the streaming-serving headline
// (EXPERIMENTS.md E7): continuous decisions over open-ended streams.
// The kept-full legs sweep the sliding decision window over one
// always-on stream — images presented back to back, chip state never
// reset, gated decisions drained from the Decisions channel — and the
// reset leg serves the same images present-reset-present (a fresh
// stream per image, the bounded-presentation idiom), so the cost of
// session turnover is the gap between them. The keyword-spotting
// stream is the ledger's keyword_stream workload (bench/).
func BenchmarkStreamingThroughput(b *testing.B) {
	if err := throughputSetup(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	for _, w := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("kept-full/window-%d", w), func(b *testing.B) {
			p, err := streamingPipeline(w)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			st := p.NewSession().Stream(ctx)
			decCh := st.Decisions()
			var decisions int64
			done := make(chan struct{})
			go func() {
				for range decCh {
					decisions++
				}
				close(done)
			}()
			inputs := throughputRig.x
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Present(inputs[i%len(inputs)], w); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := st.Drain(); err != nil {
				b.Fatal(err)
			}
			<-done
			b.ReportMetric(float64(b.N*w)/b.Elapsed().Seconds(), "ticks/s")
			b.ReportMetric(float64(decisions)/b.Elapsed().Seconds(), "dec/s")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "img/s")
		})
	}

	// The bounded-presentation idiom on the same workload and decoder:
	// a fresh stream per image (reset to power-on state), decisions
	// consumed per presentation, and a full drain before the next image
	// can start — the drain ticks and session turnover the kept-full
	// stream never pays.
	b.Run("reset/window-16", func(b *testing.B) {
		const w, drain = 16, 10 // mirrors streamingPipeline's WithDrain
		p, err := streamingPipeline(w)
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		sess := p.NewSession()
		inputs := throughputRig.x
		var decisions int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := sess.Stream(ctx) // reset to power-on state per image
			decCh := st.Decisions()
			if _, err := st.Present(inputs[i%len(inputs)], w); err != nil {
				b.Fatal(err)
			}
			if _, err := st.Drain(); err != nil {
				b.Fatal(err)
			}
			for range decCh {
				decisions++
			}
		}
		b.ReportMetric(float64(b.N*(w+drain))/b.Elapsed().Seconds(), "ticks/s")
		b.ReportMetric(float64(decisions)/b.Elapsed().Seconds(), "dec/s")
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "img/s")
	})
}
