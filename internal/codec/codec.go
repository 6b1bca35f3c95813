// Package codec converts between analogue values and spike trains: the
// encoders drive input lines of a compiled network, the decoders read its
// output events. All encoders are deterministic given their seed, so
// experiments are reproducible end to end.
package codec

import (
	"fmt"
	"math"

	"github.com/neurogo/neurogo/internal/rng"
)

// EmitFunc receives the index of an input line that spikes this tick.
type EmitFunc func(line int)

// Encoder turns a value vector into per-tick spike emissions.
type Encoder interface {
	// Tick emits this tick's spikes for values (one entry per line,
	// expected in [0,1]). Implementations clamp out-of-range values.
	Tick(values []float64, emit EmitFunc)
	// Reset restarts any internal phase/state for a new presentation.
	Reset()
	// Clone returns an independent encoder with the same configuration,
	// restarted from its seed/phase origin. Session pools clone the
	// prototype encoder so concurrent sessions never share PRNG state.
	Clone() Encoder
}

// Decoder reduces a stream of decoded output spikes to a class decision.
// Pipelines feed it every observed (class, tick) pair of a presentation
// and call Decide once at the end.
type Decoder interface {
	// ObserveAt records one output spike of class at the given tick.
	ObserveAt(class int, tick int64)
	// Decide returns the decoded class, or -1 if nothing decisive fired.
	Decide() int
	// Reset clears the decoder for the next presentation.
	Reset()
	// Clone returns an independent, reset decoder with the same
	// configuration, for session pools.
	Clone() Decoder
}

// clamp01 limits v to [0,1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Bernoulli encodes each value as an independent Bernoulli spike per
// tick: p(spike) = value * MaxRate. The stochastic code the architecture
// is usually driven with.
type Bernoulli struct {
	// MaxRate scales value 1.0 to a per-tick spike probability.
	MaxRate float64
	seed    uint64
	r       *rng.SplitMix64
}

// NewBernoulli returns a Bernoulli encoder with the given peak per-tick
// probability (e.g. 0.5 = 500 Hz at 1 ms ticks).
func NewBernoulli(maxRate float64, seed uint64) *Bernoulli {
	return &Bernoulli{MaxRate: maxRate, seed: seed, r: rng.NewSplitMix64(seed)}
}

// Tick implements Encoder.
func (b *Bernoulli) Tick(values []float64, emit EmitFunc) {
	for i, v := range values {
		p := clamp01(v) * b.MaxRate
		if b.r.Float64() < p {
			emit(i)
		}
	}
}

// Reset implements Encoder: the stream restarts from the seed, reseeding
// the generator in place.
func (b *Bernoulli) Reset() { *b.r = *rng.NewSplitMix64(b.seed) }

// Clone implements Encoder.
func (b *Bernoulli) Clone() Encoder { return NewBernoulli(b.MaxRate, b.seed) }

// Regular encodes each value as an evenly spaced deterministic train:
// value v spikes every round(1/(v*MaxRate)) ticks, phase-staggered by
// line index to avoid lockstep across lines.
type Regular struct {
	MaxRate float64
	tick    int64
}

// NewRegular returns a regular-train encoder.
func NewRegular(maxRate float64) *Regular {
	return &Regular{MaxRate: maxRate}
}

// Tick implements Encoder.
func (r *Regular) Tick(values []float64, emit EmitFunc) {
	for i, v := range values {
		p := clamp01(v) * r.MaxRate
		if p <= 0 {
			continue
		}
		period := int64(math.Round(1 / p))
		if period < 1 {
			period = 1
		}
		if (r.tick+int64(i))%period == 0 {
			emit(i)
		}
	}
	r.tick++
}

// Reset implements Encoder.
func (r *Regular) Reset() { r.tick = 0 }

// Clone implements Encoder.
func (r *Regular) Clone() Encoder { return NewRegular(r.MaxRate) }

// TTFS is a time-to-first-spike (latency) code: each line spikes exactly
// once per presentation, earlier for larger values. Value 1 spikes at
// tick 0, value 0 at tick Window-1; values below Threshold never spike.
type TTFS struct {
	// Window is the presentation length in ticks.
	Window int
	// Threshold suppresses lines with values below it.
	Threshold float64
	tick      int
}

// NewTTFS returns a latency encoder over the given window.
func NewTTFS(window int, threshold float64) *TTFS {
	if window < 1 {
		panic("codec: TTFS window must be positive")
	}
	return &TTFS{Window: window, Threshold: threshold}
}

// SpikeTick returns the tick at which a value fires, or -1 if never.
func (t *TTFS) SpikeTick(v float64) int {
	if v < t.Threshold {
		return -1
	}
	return int(math.Round((1 - clamp01(v)) * float64(t.Window-1)))
}

// Tick implements Encoder.
func (t *TTFS) Tick(values []float64, emit EmitFunc) {
	for i, v := range values {
		if t.SpikeTick(v) == t.tick {
			emit(i)
		}
	}
	t.tick++
}

// Reset implements Encoder.
func (t *TTFS) Reset() { t.tick = 0 }

// Clone implements Encoder.
func (t *TTFS) Clone() Encoder { return NewTTFS(t.Window, t.Threshold) }

// Binary encodes a thresholded frame: every line whose value exceeds
// Threshold spikes on each of the first Hold ticks of a presentation
// (Hold = 1 is a single-shot frame injection; larger Hold re-presents
// the frame, the deployment code for coincidence-thresholded conv
// stacks and template detectors).
type Binary struct {
	// Threshold is the on/off pixel cut.
	Threshold float64
	// Hold is how many leading ticks re-emit the frame.
	Hold int
	tick int
}

// NewBinary returns a thresholded frame encoder holding the frame for
// hold ticks per presentation.
func NewBinary(threshold float64, hold int) *Binary {
	if hold < 1 {
		panic("codec: binary hold must be positive")
	}
	return &Binary{Threshold: threshold, Hold: hold}
}

// Tick implements Encoder.
func (b *Binary) Tick(values []float64, emit EmitFunc) {
	if b.tick < b.Hold {
		for i, v := range values {
			if v > b.Threshold {
				emit(i)
			}
		}
	}
	b.tick++
}

// Reset implements Encoder.
func (b *Binary) Reset() { b.tick = 0 }

// Clone implements Encoder.
func (b *Binary) Clone() Encoder { return NewBinary(b.Threshold, b.Hold) }

// Population encodes a scalar across N lines with Gaussian tuning
// curves: line i is most active when the value equals i/(N-1). It turns
// one analogue channel into a place code.
type Population struct {
	// Lines is the number of output lines.
	Lines int
	// Sigma is the tuning width in value units.
	Sigma float64
	// MaxRate is the peak per-tick probability at curve centre.
	MaxRate float64
	seed    uint64
	r       *rng.SplitMix64
}

// NewPopulation returns a population encoder.
func NewPopulation(lines int, sigma, maxRate float64, seed uint64) *Population {
	if lines < 2 {
		panic("codec: population code needs at least 2 lines")
	}
	return &Population{Lines: lines, Sigma: sigma, MaxRate: maxRate, seed: seed, r: rng.NewSplitMix64(seed)}
}

// Rates returns the per-line firing probabilities for a scalar value.
func (p *Population) Rates(value float64) []float64 {
	v := clamp01(value)
	out := make([]float64, p.Lines)
	for i := range out {
		centre := float64(i) / float64(p.Lines-1)
		d := (v - centre) / p.Sigma
		out[i] = p.MaxRate * math.Exp(-0.5*d*d)
	}
	return out
}

// Tick emits spikes for a single scalar (values[0]).
func (p *Population) Tick(values []float64, emit EmitFunc) {
	rates := p.Rates(values[0])
	for i, pr := range rates {
		if p.r.Float64() < pr {
			emit(i)
		}
	}
}

// Reset implements Encoder: the stream restarts from the seed, reseeding
// the generator in place.
func (p *Population) Reset() { *p.r = *rng.NewSplitMix64(p.seed) }

// Clone implements Encoder.
func (p *Population) Clone() Encoder {
	return NewPopulation(p.Lines, p.Sigma, p.MaxRate, p.seed)
}

// Counter accumulates output spikes per class over an observation
// window and decodes by majority (argmax).
type Counter struct {
	counts []int
	total  int
}

// NewCounter returns a decoder over n output classes.
func NewCounter(n int) *Counter {
	return &Counter{counts: make([]int, n)}
}

// Observe records one spike of class c.
func (c *Counter) Observe(class int) {
	if class < 0 || class >= len(c.counts) {
		panic(fmt.Sprintf("codec: class %d out of range [0,%d)", class, len(c.counts)))
	}
	c.counts[class]++
	c.total++
}

// Counts returns the per-class spike counts.
func (c *Counter) Counts() []int { return c.counts }

// Total returns the number of observed spikes.
func (c *Counter) Total() int { return c.total }

// Argmax returns the winning class; ties break toward the lower index.
// With no spikes at all it returns -1.
func (c *Counter) Argmax() int {
	if c.total == 0 {
		return -1
	}
	best, bestC := 0, c.counts[0]
	for i, n := range c.counts[1:] {
		if n > bestC {
			best, bestC = i+1, n
		}
	}
	return best
}

// Margin returns the spike-count gap between the winner and runner-up
// (a confidence proxy).
func (c *Counter) Margin() int {
	if len(c.counts) < 2 {
		return c.total
	}
	first, second := -1, -1
	for _, n := range c.counts {
		if n > first {
			second = first
			first = n
		} else if n > second {
			second = n
		}
	}
	return first - second
}

// ObserveAt implements Decoder; the tick is ignored (counting is
// order-free). Out-of-range classes are dropped rather than panicking:
// a ClassMapper may legitimately emit indices beyond the decoder's
// range (e.g. auxiliary output neurons), and a serving path must not
// crash mid-request on one. The strict Observe remains for tests.
func (c *Counter) ObserveAt(class int, tick int64) {
	if class < 0 || class >= len(c.counts) {
		return
	}
	c.Observe(class)
}

// Decide implements Decoder (Argmax).
func (c *Counter) Decide() int { return c.Argmax() }

// Clone implements Decoder.
func (c *Counter) Clone() Decoder { return NewCounter(len(c.counts)) }

// Reset clears the counters for the next presentation.
func (c *Counter) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	c.total = 0
}

// FirstSpike decodes by earliest spike: the first class to fire wins.
type FirstSpike struct {
	winner int
	tick   int64
}

// NewFirstSpike returns a latency decoder.
func NewFirstSpike() *FirstSpike {
	return &FirstSpike{winner: -1, tick: -1}
}

// Observe records a spike of class c at tick t.
func (f *FirstSpike) Observe(class int, t int64) {
	if f.winner == -1 || t < f.tick || (t == f.tick && class < f.winner) {
		f.winner = class
		f.tick = t
	}
}

// Winner returns the decoded class (-1 if nothing fired) and its tick.
func (f *FirstSpike) Winner() (int, int64) { return f.winner, f.tick }

// ObserveAt implements Decoder.
func (f *FirstSpike) ObserveAt(class int, tick int64) { f.Observe(class, tick) }

// Decide implements Decoder (the earliest class).
func (f *FirstSpike) Decide() int { return f.winner }

// Clone implements Decoder.
func (f *FirstSpike) Clone() Decoder { return NewFirstSpike() }

// Reset clears the decoder.
func (f *FirstSpike) Reset() { f.winner, f.tick = -1, -1 }
