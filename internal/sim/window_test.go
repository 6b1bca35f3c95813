package sim

// Exchange-window coverage at the runner layer: the mapping-derived
// window bound, SetExchangeWindow's clamping, and StepN's tick-for-tick
// identity with sequential Steps on both single-chip and sharded
// (windowed) backends.

import (
	"testing"

	"github.com/neurogo/neurogo/internal/compile"
	"github.com/neurogo/neurogo/internal/core"
	"github.com/neurogo/neurogo/internal/model"
	"github.com/neurogo/neurogo/internal/neuron"
	"github.com/neurogo/neurogo/internal/rng"
	"github.com/neurogo/neurogo/internal/system"
)

func TestMaxExchangeWindowBounds(t *testing.T) {
	mp, err := compile.Compile(pulseNet(), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No chip crossings recorded (MinBoundaryDelay 0): only the
	// injection horizon binds — delay-1 lines leave RingSlots-1 ticks.
	if w, want := MaxExchangeWindow(mp), core.RingSlots-1; w != want {
		t.Fatalf("unconstrained window = %d, want %d", w, want)
	}
	// A boundary-delay bound tighter than the horizon wins...
	mp.Stats.MinBoundaryDelay = 4
	if w := MaxExchangeWindow(mp); w != 4 {
		t.Fatalf("delay-bounded window = %d, want 4", w)
	}
	// ...a looser one does not.
	mp.Stats.MinBoundaryDelay = 100
	if w, want := MaxExchangeWindow(mp), core.RingSlots-1; w != want {
		t.Fatalf("horizon-bounded window = %d, want %d", w, want)
	}
	// Lockstep-only mappings report exactly 1.
	mp.Stats.MinBoundaryDelay = 1
	if w := MaxExchangeWindow(mp); w != 1 {
		t.Fatalf("delay-1 window = %d, want 1", w)
	}
	// The floor is 1 even when a line's delay eats the whole ring.
	mp.Stats.MinBoundaryDelay = 0
	mp.InputDelay[0] = core.RingSlots
	if w := MaxExchangeWindow(mp); w != 1 {
		t.Fatalf("horizonless window = %d, want floor 1", w)
	}
}

func TestSetExchangeWindowClamps(t *testing.T) {
	mp, err := compile.Compile(pulseNet(), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp.Stats.MinBoundaryDelay = 4
	r := NewRunner(mp, EngineEvent, 1)
	if r.ExchangeWindow() != 1 {
		t.Fatalf("fresh runner window = %d, want 1", r.ExchangeWindow())
	}
	for _, c := range []struct{ set, want int }{
		{2, 2},  // in range: taken as-is
		{0, 4},  // 0 selects the widest exact window
		{-3, 4}, // non-positive likewise
		{99, 4}, // beyond the bound clamps down
		{1, 1},  // back to lockstep
		{4, 4},  // the bound itself is legal
	} {
		r.SetExchangeWindow(c.set)
		if got := r.ExchangeWindow(); got != c.want {
			t.Fatalf("SetExchangeWindow(%d) -> %d, want %d", c.set, got, c.want)
		}
	}
}

// windowNet is goldenNet without splitters: every a-neuron has exactly
// one outgoing edge carrying >= 4 ticks of delay, so a 1x1-core tiling
// proves exchange windows up to 4 and no delay-1 relay hop pins the
// bound at lockstep.
func windowNet(seed uint64) *model.Network {
	r := rng.NewSplitMix64(seed)
	m := model.New()
	in := m.AddInputBank("in", 24, model.SourceProps{Type: 0, Delay: 1})
	proto := neuron.Default()
	proto.Threshold = 2
	a := m.AddPopulation("a", 300, proto)
	b := m.AddPopulation("b", 150, proto)
	for i := 0; i < 24; i++ {
		for k := 0; k < 25; k++ {
			m.Connect(in.Line(i), a.ID(r.Intn(300)))
		}
	}
	for i := 0; i < 300; i++ {
		props := m.SourceProps(a.ID(i))
		props.Delay = uint8(4 + r.Intn(3))
		if r.Intn(4) == 0 {
			props.Type = 1
		}
		m.Connect(model.NeuronNode(a.ID(i)), b.ID(i%150))
	}
	for i := 0; i < 150; i++ {
		m.Params(b.ID(i)).Threshold = int32(1 + r.Intn(2))
		m.MarkOutput(b.ID(i))
	}
	return m
}

// scheduleWindowed replays schedule's exact injection stream, but
// pre-injects each exchange window with InjectLineAt and executes it in
// one StepN — the windowed drive loop nsim and the pipeline run.
func scheduleWindowed(t *testing.T, r *Runner, ticks int, seed uint64, w int) []Event {
	t.Helper()
	rr := rng.NewSplitMix64(seed)
	var evs []Event
	for tick := 0; tick < ticks; {
		n := w
		if rem := ticks - tick; n > rem {
			n = rem
		}
		base := r.Now()
		for k := 0; k < n; k++ {
			for j := 0; j < 6; j++ {
				if err := r.InjectLineAt(int32(rr.Intn(24)), base+int64(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		evs = append(evs, r.StepN(n)...)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		tick += n
	}
	for i := 0; i < 10; i++ {
		evs = append(evs, r.Step()...)
	}
	horizon := int64(ticks + 6)
	cut := evs[:0:0]
	for _, e := range evs {
		if e.Tick < horizon {
			cut = append(cut, e)
		}
	}
	return cut
}

// TestStepNMatchesSequentialSteps pins the windowed stepping identity:
// for every engine, shard count and window width that the mapping
// proves exact (including a width that does not divide the tick count),
// the windowed drive emits exactly the per-tick runner's event stream.
func TestStepNMatchesSequentialSteps(t *testing.T) {
	const seed = 11
	mp, err := compile.Compile(windowNet(seed), compile.Options{
		Seed: seed, Width: 4, Height: 4, ChipCoresX: 1, ChipCoresY: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := mp.Stats.MinBoundaryDelay; d < 4 {
		t.Fatalf("window fuzz mapping has MinBoundaryDelay %d, want >= 4", d)
	}
	if w := MaxExchangeWindow(mp); w != 4 {
		t.Fatalf("MaxExchangeWindow = %d, want 4", w)
	}
	cfg := system.Config{ChipCoresX: 1, ChipCoresY: 1}

	for _, eng := range []Engine{EngineEvent, EngineParallel} {
		want := schedule(t, NewRunner(mp, eng, 2), 30, seed*3)
		if len(want) == 0 {
			t.Fatalf("%v: no events; test is vacuous", eng)
		}
		// Single-chip backend: StepN is plain sequential stepping, but the
		// pre-injected windowed drive must still reproduce the stream.
		for _, w := range []int{2, 4} {
			got := scheduleWindowed(t, NewRunner(mp, eng, 2), 30, seed*3, w)
			compareEvents(t, eng.String()+"/chip", got, want)
		}
		// Sharded backend: StepN collapses each window into one exchange.
		for _, shards := range []int{1, 2, 4} {
			for _, w := range []int{1, 2, 4} {
				sr, err := NewShardedRunner(mp, cfg, shards, eng, 2)
				if err != nil {
					t.Fatal(err)
				}
				sr.SetExchangeWindow(w)
				got := scheduleWindowed(t, sr, 30, seed*3, sr.ExchangeWindow())
				compareEvents(t, eng.String()+"/sharded", got, want)
			}
		}
	}
}

func compareEvents(t *testing.T, leg string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, reference %d", leg, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, reference %+v", leg, i, got[i], want[i])
		}
	}
}
