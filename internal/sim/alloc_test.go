package sim

import (
	"testing"

	"github.com/neurogo/neurogo/internal/compile"
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
	const ceiling = 2
	got := testing.AllocsPerRun(100, func() {
		if evs := r.Step(); len(evs) != 0 {
			t.Fatalf("idle tick emitted %d events", len(evs))
		}
	})
	if got > ceiling {
		t.Errorf("Runner.Step on an idle tick: %v allocs, ceiling %v", got, ceiling)
	}
}
