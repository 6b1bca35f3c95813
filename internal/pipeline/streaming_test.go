package pipeline

// Streaming-serving tests: continuous decisions from open-ended
// streams, bit-identity across engines and under the async front-end,
// and the windowed-decoder/bounded-presentation equivalence.

import (
	"context"
	"testing"
	"time"

	"github.com/neurogo/neurogo/internal/codec"
	"github.com/neurogo/neurogo/internal/dataset"
	"github.com/neurogo/neurogo/internal/sim"
)

// slidingDecoder builds the gated windowed decoder the streaming tests
// share: enough evidence pressure that only confident ticks emit.
func slidingDecoder() *codec.SlidingCounter {
	sc := codec.NewSlidingCounter(dataset.NumClasses, 12)
	sc.MinCount, sc.MinMargin = 4, 2
	return sc
}

// collectStream feeds every frame for ticksPer ticks on one open
// stream (persistent chip state — no reset between frames), drains,
// and returns the full decision sequence.
func collectStream(t *testing.T, st *Stream, frames [][]float64, ticksPer int) []Decision {
	t.Helper()
	dch := st.Decisions()
	for i, f := range frames {
		if _, err := st.Present(f, ticksPer); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	var ds []Decision
	for d := range dch {
		ds = append(ds, d)
	}
	return ds
}

// TestStreamingBitIdentical is the streaming acceptance criterion: the
// same frame sequence streamed through a windowed decoder yields the
// exact same decision sequence — tick, class and margin — on every
// engine, and again when the stream is served under the async
// front-end. Decisions are integer-derived, so the comparison is ==.
func TestStreamingBitIdentical(t *testing.T) {
	rg := buildRig(t)
	frames := rg.x[:6]
	const ticksPer = 8

	run := func(opts ...Option) []Decision {
		opts = append([]Option{WithDecoder(slidingDecoder())}, opts...)
		p := rg.pipeline(t, opts...)
		defer p.Close()
		return collectStream(t, p.NewSession().Stream(context.Background()), frames, ticksPer)
	}

	want := run(WithEngine(sim.EngineEvent))
	if len(want) == 0 {
		t.Fatal("no decisions emitted — gate never fired, test is vacuous")
	}
	for i := 1; i < len(want); i++ {
		if want[i].Tick <= want[i-1].Tick {
			t.Fatalf("decision ticks not strictly increasing: %+v", want)
		}
	}
	par := run(WithEngine(sim.EngineParallel), WithEngineWorkers(4))
	if len(par) != len(want) {
		t.Fatalf("parallel: %d decisions, event engine %d", len(par), len(want))
	}
	for i := range want {
		if par[i] != want[i] {
			t.Fatalf("parallel: decision %d = %+v, event engine %+v", i, par[i], want[i])
		}
	}

	// The async front-end serves the same stream bit-identically, and
	// meters it.
	p := rg.pipeline(t, WithDecoder(slidingDecoder()))
	defer p.Close()
	ap := mustAsync(t, p, WithAsyncWorkers(2))
	as, err := ap.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dch := as.Decisions()
	for i, f := range frames {
		if _, err := as.Present(f, ticksPer); err != nil {
			t.Fatalf("async frame %d: %v", i, err)
		}
	}
	if _, err := as.Drain(); err != nil {
		t.Fatal(err)
	}
	var got []Decision
	for d := range dch {
		got = append(got, d)
	}
	if len(got) != len(want) {
		t.Fatalf("async: %d decisions, direct %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("async: decision %d = %+v, direct %+v", i, got[i], want[i])
		}
	}
	ap.Close()
	m := ap.Metrics()
	if m.StreamsOpened != 1 || m.StreamsClosed != 1 || m.StreamsOpen != 0 {
		t.Fatalf("stream gauges: %+v", m)
	}
	if wantFrames := uint64(len(frames) * ticksPer); m.StreamFrames != wantFrames {
		t.Fatalf("StreamFrames = %d, want %d", m.StreamFrames, wantFrames)
	}
	if m.StreamDecisions != uint64(len(want)) {
		t.Fatalf("StreamDecisions = %d, want %d", m.StreamDecisions, len(want))
	}
	if m.StreamLatency.Count == 0 {
		t.Fatal("StreamLatency recorded no operations")
	}
}

// TestSlidingClassifyMatchesCounter is the equivalence half of the
// acceptance criterion at the pipeline level: with the window equal to
// the presentation length and no gate, a SlidingCounter-decoded
// pipeline classifies every image exactly like the Counter-decoded
// one — the bounded presentation is the window = presentation special
// case of streaming.
func TestSlidingClassifyMatchesCounter(t *testing.T) {
	rg := buildRig(t)
	ctx := context.Background()
	counterP := rg.pipeline(t)
	slidingP := rg.pipeline(t, WithDecoder(codec.NewSlidingCounter(dataset.NumClasses, 16)))
	defer counterP.Close()
	defer slidingP.Close()
	cs, ss := counterP.NewSession(), slidingP.NewSession()
	for i, img := range rg.x {
		want, err := cs.Classify(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ss.Classify(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("image %d: sliding decided %d, counter %d", i, got, want)
		}
	}
}

// TestStreamDecisionsLifecycle pins the channel contract: it closes
// after Drain (empty when nothing fired), and closes on context
// cancellation without Drain.
func TestStreamDecisionsLifecycle(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t, WithDecoder(slidingDecoder()))
	defer p.Close()

	// Drain with no input: channel closes, zero decisions.
	st := p.NewSession().Stream(context.Background())
	dch := st.Decisions()
	if _, err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	for d := range dch {
		t.Fatalf("decision %+v from an empty stream", d)
	}

	// Cancellation ends the channel without Drain.
	ctx, cancel := context.WithCancel(context.Background())
	st2 := p.NewSession().Stream(ctx)
	dch2 := st2.Decisions()
	cancel()
	select {
	case _, ok := <-dch2:
		if ok {
			t.Fatal("decision from a cancelled stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Decisions channel did not close on cancellation")
	}

	// A decoder-less (or non-windowed) stream still closes the channel.
	plain := rg.pipeline(t)
	defer plain.Close()
	st3 := plain.NewSession().Stream(context.Background())
	dch3 := st3.Decisions()
	if _, err := st3.Present(rg.x[0], 4); err != nil {
		t.Fatal(err)
	}
	if _, err := st3.Drain(); err != nil {
		t.Fatal(err)
	}
	for d := range dch3 {
		t.Fatalf("decision %+v from a non-windowed decoder", d)
	}
}

// TestOpenStreamClosed: OpenStream on a closed front-end (and stream
// operations after Close) report ErrClosed.
func TestOpenStreamClosed(t *testing.T) {
	rg := buildRig(t)
	p := rg.pipeline(t, WithDecoder(slidingDecoder()))
	ap := mustAsync(t, p, WithAsyncWorkers(1))
	as, err := ap.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ap.Close()
	if _, err := as.Present(rg.x[0], 4); err != ErrClosed {
		t.Fatalf("Present after Close: err = %v, want ErrClosed", err)
	}
	if _, err := as.Drain(); err != ErrClosed {
		t.Fatalf("Drain after Close: err = %v, want ErrClosed", err)
	}
	if _, err := ap.OpenStream(context.Background()); err != ErrClosed {
		t.Fatalf("OpenStream after Close: err = %v, want ErrClosed", err)
	}
}
