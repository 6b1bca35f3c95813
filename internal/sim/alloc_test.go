package sim

import (
	"testing"

	"github.com/neurogo/neurogo/internal/compile"
	"github.com/neurogo/neurogo/internal/rng"
)

// raceEnabled is set under -race (race_test.go), whose runtime
// allocates differently; the allocation ceilings skip there.
var raceEnabled bool

// TestStepIdleAllocs is the allocation ceiling of Runner.Step on a tick
// that emits nothing: the golden net with no input, so every tick is
// output-free. Allocation counts are exact for a fixed rig, so the
// ceiling is today's count; a change that earns a lower count lowers
// the ceiling with it.
func TestStepIdleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	mp, err := compile.Compile(goldenNet(1), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(mp, EngineEvent, 1)
	const ceiling = 0
	got := testing.AllocsPerRun(100, func() {
		if evs := r.Step(); len(evs) != 0 {
			t.Fatalf("idle tick emitted %d events", len(evs))
		}
	})
	if got > ceiling {
		t.Errorf("Runner.Step on an idle tick: %v allocs, ceiling %v", got, ceiling)
	}
}

// TestPresentationAllocs is the allocation ceiling of a whole
// presentation at the Runner: windows of pre-injected input lines, each
// stepped by one StepN, then a Drain, on the golden net. Once the
// runner's event buffers have grown (AllocsPerRun's warm-up run), a
// presentation allocates nothing.
func TestPresentationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	mp, err := compile.Compile(goldenNet(1), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(mp, EngineEvent, 1)
	const window, ticks, perTick = 4, 16, 6
	rr := rng.NewSplitMix64(3)
	lines := make([]int32, ticks*perTick)
	for i := range lines {
		lines[i] = int32(rr.Intn(24))
	}
	events := 0
	got := testing.AllocsPerRun(20, func() {
		r.Reset()
		events = 0
		for tick := 0; tick < ticks; tick += window {
			base := r.Now()
			for k := 0; k < window; k++ {
				for _, line := range lines[(tick+k)*perTick : (tick+k+1)*perTick] {
					if err := r.InjectLineAt(line, base+int64(k)); err != nil {
						t.Fatal(err)
					}
				}
			}
			events += len(r.StepN(window))
		}
		events += len(r.Drain(4))
	})
	if events == 0 {
		t.Fatal("presentation emitted no events; the ceiling is vacuous")
	}
	if got > 0 {
		t.Errorf("Runner presentation (%d events): %v allocs, ceiling 0", events, got)
	}
}
