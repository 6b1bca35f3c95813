package codec

import (
	"math"
	"reflect"
	"testing"
)

func collect(e Encoder, values []float64, ticks int) [][]int {
	out := make([][]int, ticks)
	for t := 0; t < ticks; t++ {
		e.Tick(values, func(line int) { out[t] = append(out[t], line) })
	}
	return out
}

func rate(spikes [][]int, line, ticks int) float64 {
	n := 0
	for _, tick := range spikes {
		for _, l := range tick {
			if l == line {
				n++
			}
		}
	}
	return float64(n) / float64(ticks)
}

func TestBernoulliRates(t *testing.T) {
	e := NewBernoulli(0.5, 42)
	values := []float64{0, 0.5, 1.0}
	ticks := 20000
	sp := collect(e, values, ticks)
	if r := rate(sp, 0, ticks); r != 0 {
		t.Errorf("value 0 fired at rate %g", r)
	}
	if r := rate(sp, 1, ticks); math.Abs(r-0.25) > 0.02 {
		t.Errorf("value 0.5 rate = %g, want ~0.25", r)
	}
	if r := rate(sp, 2, ticks); math.Abs(r-0.5) > 0.02 {
		t.Errorf("value 1.0 rate = %g, want ~0.5", r)
	}
}

func TestBernoulliClampsOutOfRange(t *testing.T) {
	e := NewBernoulli(1.0, 1)
	sp := collect(e, []float64{-5, 7}, 100)
	if r := rate(sp, 0, 100); r != 0 {
		t.Error("negative value must clamp to silent")
	}
	if r := rate(sp, 1, 100); r != 1 {
		t.Error("value > 1 must clamp to max rate")
	}
}

func TestBernoulliResetReproduces(t *testing.T) {
	e := NewBernoulli(0.3, 9)
	a := collect(e, []float64{0.7}, 200)
	e.Reset()
	b := collect(e, []float64{0.7}, 200)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("Reset did not reproduce the stream")
		}
	}
}

func TestRegularPeriod(t *testing.T) {
	e := NewRegular(1.0)
	ticks := 100
	sp := collect(e, []float64{0.25}, ticks) // period 4
	var times []int
	for tk, lines := range sp {
		if len(lines) > 0 {
			times = append(times, tk)
		}
	}
	if len(times) < 20 {
		t.Fatalf("too few spikes: %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != 4 {
			t.Fatalf("irregular period: %v", times[:i+1])
		}
	}
}

func TestRegularPhaseStagger(t *testing.T) {
	e := NewRegular(1.0)
	sp := collect(e, []float64{0.5, 0.5}, 2)
	// Line 0 spikes at t where t%2==0; line 1 where (t+1)%2==0.
	if len(sp[0]) != 1 || sp[0][0] != 0 {
		t.Fatalf("tick 0 = %v, want line 0 only", sp[0])
	}
	if len(sp[1]) != 1 || sp[1][0] != 1 {
		t.Fatalf("tick 1 = %v, want line 1 only", sp[1])
	}
}

func TestRegularZeroSilent(t *testing.T) {
	e := NewRegular(1.0)
	sp := collect(e, []float64{0}, 50)
	for _, lines := range sp {
		if len(lines) > 0 {
			t.Fatal("zero value must be silent")
		}
	}
}

func TestTTFSOrderingAndUniqueness(t *testing.T) {
	e := NewTTFS(32, 0.05)
	values := []float64{1.0, 0.5, 0.1}
	sp := collect(e, values, 32)
	first := map[int]int{}
	count := map[int]int{}
	for tk, lines := range sp {
		for _, l := range lines {
			if _, seen := first[l]; !seen {
				first[l] = tk
			}
			count[l]++
		}
	}
	for l, c := range count {
		if c != 1 {
			t.Errorf("line %d spiked %d times, want exactly 1", l, c)
		}
	}
	if !(first[0] < first[1] && first[1] < first[2]) {
		t.Errorf("larger values must spike earlier: %v", first)
	}
	if first[0] != 0 {
		t.Errorf("value 1.0 must spike at tick 0, got %d", first[0])
	}
}

func TestTTFSThresholdSuppresses(t *testing.T) {
	e := NewTTFS(16, 0.2)
	sp := collect(e, []float64{0.1}, 16)
	for _, lines := range sp {
		if len(lines) > 0 {
			t.Fatal("below-threshold value must never spike")
		}
	}
	if e.SpikeTick(0.1) != -1 {
		t.Error("SpikeTick must report -1 below threshold")
	}
}

func TestTTFSRoundTrip(t *testing.T) {
	e := NewTTFS(64, 0)
	for _, v := range []float64{0, 0.25, 0.5, 0.75, 1} {
		tk := e.SpikeTick(v)
		recovered := 1 - float64(tk)/63
		if math.Abs(recovered-v) > 0.02 {
			t.Errorf("value %g decoded as %g", v, recovered)
		}
	}
}

func TestTTFSPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTTFS(0, 0)
}

func TestPopulationTuning(t *testing.T) {
	p := NewPopulation(11, 0.15, 0.8, 3)
	rates := p.Rates(0.5)
	// Peak at the centre line (index 5).
	for i, r := range rates {
		if r > rates[5] {
			t.Fatalf("line %d rate %g exceeds centre %g", i, r, rates[5])
		}
	}
	if math.Abs(rates[5]-0.8) > 1e-9 {
		t.Errorf("centre rate = %g, want 0.8", rates[5])
	}
	// Symmetric falloff.
	if math.Abs(rates[4]-rates[6]) > 1e-9 {
		t.Error("tuning not symmetric")
	}
}

func TestPopulationEmits(t *testing.T) {
	p := NewPopulation(5, 0.2, 1.0, 7)
	counts := make([]int, 5)
	for t := 0; t < 500; t++ {
		p.Tick([]float64{0.0}, func(line int) { counts[line]++ })
	}
	if counts[0] < counts[4] {
		t.Errorf("value 0 must drive line 0 hardest: %v", counts)
	}
}

func TestPopulationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPopulation(1, 0.1, 1, 1)
}

func TestCounterArgmax(t *testing.T) {
	c := NewCounter(3)
	if c.Argmax() != -1 {
		t.Error("empty counter must decode -1")
	}
	for i := 0; i < 5; i++ {
		c.Observe(1)
	}
	for i := 0; i < 3; i++ {
		c.Observe(2)
	}
	if c.Argmax() != 1 {
		t.Errorf("Argmax = %d, want 1", c.Argmax())
	}
	if c.Total() != 8 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.Margin() != 2 {
		t.Errorf("Margin = %d, want 2", c.Margin())
	}
	c.Reset()
	if c.Total() != 0 || c.Argmax() != -1 {
		t.Error("Reset failed")
	}
}

func TestCounterTieBreaksLow(t *testing.T) {
	c := NewCounter(3)
	c.Observe(2)
	c.Observe(0)
	if c.Argmax() != 0 {
		t.Errorf("tie must break toward lower class, got %d", c.Argmax())
	}
}

func TestCounterPanicsOutOfRange(t *testing.T) {
	c := NewCounter(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Observe(2)
}

func TestFirstSpike(t *testing.T) {
	f := NewFirstSpike()
	if w, _ := f.Winner(); w != -1 {
		t.Error("empty decoder must report -1")
	}
	f.Observe(2, 10)
	f.Observe(1, 5)
	f.Observe(0, 5) // same tick, lower class wins
	f.Observe(3, 4)
	w, tk := f.Winner()
	if w != 3 || tk != 4 {
		t.Errorf("Winner = (%d,%d), want (3,4)", w, tk)
	}
	f.Reset()
	if w, _ := f.Winner(); w != -1 {
		t.Error("Reset failed")
	}
}

func TestFirstSpikeTieBreak(t *testing.T) {
	f := NewFirstSpike()
	f.Observe(2, 5)
	f.Observe(1, 5)
	w, _ := f.Winner()
	if w != 1 {
		t.Errorf("tie at same tick must pick lower class, got %d", w)
	}
}

func TestBinaryHoldAndThreshold(t *testing.T) {
	b := NewBinary(0.5, 2)
	values := []float64{0.9, 0.2, 0.7}
	var got [][]int
	for tick := 0; tick < 4; tick++ {
		var lines []int
		b.Tick(values, func(i int) { lines = append(lines, i) })
		got = append(got, lines)
	}
	for tick := 0; tick < 2; tick++ {
		if len(got[tick]) != 2 || got[tick][0] != 0 || got[tick][1] != 2 {
			t.Fatalf("tick %d emitted %v, want [0 2]", tick, got[tick])
		}
	}
	for tick := 2; tick < 4; tick++ {
		if len(got[tick]) != 0 {
			t.Fatalf("tick %d emitted %v after hold expired", tick, got[tick])
		}
	}
	b.Reset()
	var lines []int
	b.Tick(values, func(i int) { lines = append(lines, i) })
	if len(lines) != 2 {
		t.Fatalf("Reset did not restart the hold: %v", lines)
	}
}

func TestBinaryPanicsOnBadHold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("hold 0 accepted")
		}
	}()
	NewBinary(0.5, 0)
}

func TestCloneIndependence(t *testing.T) {
	// A clone restarts from the seed and never shares PRNG state with
	// its origin — the property session pools rely on.
	values := []float64{0.5, 0.5, 0.5, 0.5}
	encoders := []Encoder{
		NewBernoulli(0.8, 42),
		NewRegular(0.3),
		NewTTFS(8, 0.1),
		NewBinary(0.4, 1),
		NewPopulation(4, 0.2, 0.8, 7),
	}
	for _, proto := range encoders {
		// Advance the prototype so clone state would differ if shared.
		collect(proto, values, 5)
		a, b := proto.Clone(), proto.Clone()
		ta, tb := collect(a, values, 10), collect(b, values, 10)
		for tick := range ta {
			la, lb := ta[tick], tb[tick]
			if len(la) != len(lb) {
				t.Fatalf("%T: clones diverged at tick %d: %v vs %v", proto, tick, la, lb)
			}
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("%T: clones diverged at tick %d: %v vs %v", proto, tick, la, lb)
				}
			}
		}
	}
}

// TestResetReplaysClone pins the seeded encoders' restart: after Reset,
// an encoder that has already run emits exactly the stream a fresh Clone
// emits, and Reset reseeds its generator in place without allocating.
func TestResetReplaysClone(t *testing.T) {
	values := []float64{0.9, 0.5, 0.2, 0.7}
	for _, e := range []Encoder{NewBernoulli(0.8, 42), NewPopulation(4, 0.2, 0.8, 7)} {
		collect(e, values, 7)
		fresh := e.Clone()
		e.Reset()
		got, want := collect(e, values, 20), collect(fresh, values, 20)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: stream after Reset %v, fresh clone %v", e, got, want)
		}
		if n := testing.AllocsPerRun(10, e.Reset); n != 0 {
			t.Errorf("%T: Reset makes %v allocs, want 0", e, n)
		}
	}
}

// TestCounterObserveAtDropsOutOfRange pins the serving-path fix: the
// Decoder interface entry point tolerates classes a ClassMapper may
// emit beyond the configured range, while the strict Observe keeps
// panicking for test harnesses.
func TestCounterObserveAtDropsOutOfRange(t *testing.T) {
	c := NewCounter(3)
	c.ObserveAt(-1, 0)
	c.ObserveAt(3, 1)
	c.ObserveAt(1000, 2)
	if c.Total() != 0 {
		t.Fatalf("out-of-range observations counted: total = %d", c.Total())
	}
	c.ObserveAt(2, 3)
	if c.Decide() != 2 || c.Total() != 1 {
		t.Fatalf("in-range observation lost: decide %d, total %d", c.Decide(), c.Total())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("strict Observe accepted an out-of-range class")
		}
	}()
	c.Observe(3)
}

func TestDecoderInterface(t *testing.T) {
	var decoders = []Decoder{NewCounter(3), NewFirstSpike()}
	for _, d := range decoders {
		if got := d.Decide(); got != -1 {
			t.Fatalf("%T: empty Decide = %d, want -1", d, got)
		}
		d.ObserveAt(2, 4)
		d.ObserveAt(2, 5)
		d.ObserveAt(1, 6)
		if got := d.Decide(); got != 2 {
			t.Fatalf("%T: Decide = %d, want 2", d, got)
		}
		c := d.Clone()
		if got := c.Decide(); got != -1 {
			t.Fatalf("%T: clone inherited observations (Decide = %d)", d, got)
		}
		d.Reset()
		if got := d.Decide(); got != -1 {
			t.Fatalf("%T: Reset did not clear (Decide = %d)", d, got)
		}
	}
}
