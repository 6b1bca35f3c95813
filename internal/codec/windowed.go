package codec

// Windowed decoders: the continuous-decision half of the codec layer.
//
// Counter assumes a bounded presentation — observe everything, decide
// once. Open-ended streams never finish, so these decoders keep a
// tick-indexed evidence window and can be asked for a decision at any
// tick: SlidingCounter holds the last W ticks exactly (ring buffer,
// exact eviction), DecayCounter holds an exponentially-decayed account
// of everything (fixed-point integer state, so decay is bit-exact).
// Both gate their decisions on evidence and margin floors, so
// low-evidence windows abstain instead of guessing — the seam
// pipeline.Stream's Decisions channel is built on.

import "fmt"

// StreamDecoder is the continuous-decision contract: a Decoder whose
// state is tick-indexed, so a decision can be read at any tick of an
// open-ended stream rather than once at the end of a bounded
// presentation. DecideAt carries a confidence gate: a window with too
// little evidence, or too small a winner margin, abstains (ok false)
// instead of guessing.
//
// Implementations must use integer or fixed-point state: for the same
// (class, tick) observation sequence the decisions are bit-identical
// regardless of engine, backend or wall clock — the streaming
// counterpart of the chip's determinism contract.
type StreamDecoder interface {
	Decoder
	// DecideAt returns the decision for the window ending at tick: the
	// leading class (-1 when nothing is accumulated), its margin over
	// the runner-up in spike units, and whether the confidence gate
	// passed. The decision tick must not decrease across calls;
	// observations may lag it by less than the window (late events are
	// folded in exactly).
	DecideAt(tick int64) (class int, margin float64, ok bool)
}

// SlidingCounter decodes over a sliding window of the last Window
// ticks: per-class spike counts enter as they are observed and leave
// exactly Window ticks later (ring-buffer eviction, no approximation).
// With a window at least as long as a bounded presentation and a zero
// gate it reproduces Counter's decision exactly.
type SlidingCounter struct {
	// MinCount is the evidence gate: DecideAt abstains while the window
	// holds fewer than MinCount spikes in total (0: no floor).
	MinCount int
	// MinMargin is the confidence gate: DecideAt abstains while the
	// winner leads the runner-up by less than MinMargin spikes (0: no
	// floor; with a single class the margin is the total).
	MinMargin int

	window int
	counts []int // per-class totals over (head-window, head]
	total  int
	ring   [][]int // ring[t mod window]: per-class counts of tick t
	slotAt []int64 // the tick each ring slot currently holds; -1 empty
	head   int64   // latest tick advanced to; evictions done through head-window
}

// NewSlidingCounter returns a windowed decoder over n classes and a
// window of the given length in ticks. The gate starts at zero (never
// abstains once anything is observed); set MinCount/MinMargin to taste.
func NewSlidingCounter(n, window int) *SlidingCounter {
	if n < 1 {
		panic(fmt.Sprintf("codec: sliding counter needs at least 1 class, got %d", n))
	}
	if window < 1 {
		panic(fmt.Sprintf("codec: sliding window %d must be positive", window))
	}
	s := &SlidingCounter{
		window: window,
		counts: make([]int, n),
		ring:   make([][]int, window),
		slotAt: make([]int64, window),
	}
	for i := range s.ring {
		s.ring[i] = make([]int, n)
		s.slotAt[i] = -1
	}
	s.head = -1
	return s
}

// Window returns the window length in ticks.
func (s *SlidingCounter) Window() int { return s.window }

// Counts returns the live per-class counts over the current window.
func (s *SlidingCounter) Counts() []int { return s.counts }

// Total returns the number of spikes in the current window.
func (s *SlidingCounter) Total() int { return s.total }

// evict drops a ring slot's contribution and marks it empty.
func (s *SlidingCounter) evict(slot int) {
	row := s.ring[slot]
	for c, n := range row {
		if n != 0 {
			s.counts[c] -= n
			s.total -= n
			row[c] = 0
		}
	}
	s.slotAt[slot] = -1
}

// advanceTo moves the window head forward to tick, evicting every tick
// that falls out of (tick-window, tick]. Each departing tick owns
// exactly one ring slot, so the walk is O(ticks advanced); a jump of a
// full window or more just clears everything.
func (s *SlidingCounter) advanceTo(tick int64) {
	if tick <= s.head {
		return
	}
	w := int64(s.window)
	if tick-s.head >= w {
		for slot := range s.ring {
			if s.slotAt[slot] >= 0 {
				s.evict(slot)
			}
		}
	} else {
		for t := s.head + 1; t <= tick; t++ {
			if old := t - w; old >= 0 {
				slot := int(old % w)
				if s.slotAt[slot] == old {
					s.evict(slot)
				}
			}
		}
	}
	s.head = tick
}

// ObserveAt implements Decoder: the spike enters the window at its
// tick. Out-of-range classes are dropped (serving contract, matching
// Counter.ObserveAt); so are spikes older than the window — a lagged
// event that can no longer influence any future decision.
func (s *SlidingCounter) ObserveAt(class int, tick int64) {
	if class < 0 || class >= len(s.counts) || tick < 0 {
		return
	}
	s.advanceTo(tick)
	if tick <= s.head-int64(s.window) {
		return
	}
	slot := int(tick % int64(s.window))
	if s.slotAt[slot] != tick {
		if s.slotAt[slot] >= 0 {
			s.evict(slot)
		}
		s.slotAt[slot] = tick
	}
	s.ring[slot][class]++
	s.counts[class]++
	s.total++
}

// decide is the shared gated argmax: winning class, margin, gate pass.
func (s *SlidingCounter) decide() (int, int, bool) {
	if s.total == 0 {
		return -1, 0, false
	}
	// With a single class the margin degenerates to the total, matching
	// Counter.Margin.
	best, bestC, second := 0, s.counts[0], 0
	for i, n := range s.counts[1:] {
		switch {
		case n > bestC:
			second = bestC
			best, bestC = i+1, n
		case n > second:
			second = n
		}
	}
	margin := bestC - second
	return best, margin, s.total >= s.MinCount && margin >= s.MinMargin
}

// DecideAt implements StreamDecoder: the gated decision for the window
// ending at tick.
func (s *SlidingCounter) DecideAt(tick int64) (int, float64, bool) {
	if tick >= 0 {
		s.advanceTo(tick)
	}
	class, margin, ok := s.decide()
	return class, float64(margin), ok
}

// Decide implements Decoder: the gated argmax over the current window
// (-1 when empty or gated out). With a zero gate and a window covering
// the whole presentation this is exactly Counter.Decide.
func (s *SlidingCounter) Decide() int {
	class, _, ok := s.decide()
	if !ok {
		return -1
	}
	return class
}

// Reset implements Decoder: back to an empty window at tick origin.
func (s *SlidingCounter) Reset() {
	for slot := range s.ring {
		if s.slotAt[slot] >= 0 {
			s.evict(slot)
		}
	}
	s.head = -1
}

// Clone implements Decoder.
func (s *SlidingCounter) Clone() Decoder {
	c := NewSlidingCounter(len(s.counts), s.window)
	c.MinCount, c.MinMargin = s.MinCount, s.MinMargin
	return c
}

// decayOne is the fixed-point scale of DecayCounter: one spike.
const decayOne = 1 << 16

// DecayCounter decodes over an exponentially-decayed account of the
// whole stream: every observed spike adds one unit to its class and
// every tick multiplies all classes by (1 - 2^-Shift). State is Q16
// fixed-point integer and the decay is a shift-and-subtract, so the
// accumulator — and therefore every decision — is bit-identical across
// engines and platforms; no float ever enters the evidence path.
//
// The effective window is soft: a spike's weight halves roughly every
// 0.69 * 2^Shift ticks, so Shift 3 weights the last ~10 ticks, Shift 5
// the last ~40.
type DecayCounter struct {
	// MinLevel is the evidence gate in spike units: DecideAt abstains
	// while the summed decayed activity is below it (0: no floor).
	MinLevel float64
	// MinMargin is the confidence gate in spike units: DecideAt
	// abstains while the winner leads by less (0: no floor; with a
	// single class the margin is that class's level).
	MinMargin float64

	shift uint
	acc   []uint64 // Q16 per-class decayed counts
	head  int64    // tick decay has been applied through
}

// NewDecayCounter returns a decay decoder over n classes. shift sets
// the per-tick decay acc -= acc>>shift (half-life ~0.69*2^shift ticks)
// and must be in [1, 62].
func NewDecayCounter(n int, shift uint) *DecayCounter {
	if n < 1 {
		panic(fmt.Sprintf("codec: decay counter needs at least 1 class, got %d", n))
	}
	if shift < 1 || shift > 62 {
		panic(fmt.Sprintf("codec: decay shift %d out of range [1,62]", shift))
	}
	return &DecayCounter{shift: shift, acc: make([]uint64, n)}
}

// Shift returns the decay shift.
func (d *DecayCounter) Shift() uint { return d.shift }

// Level returns a class's current decayed activity in spike units.
func (d *DecayCounter) Level(class int) float64 {
	if class < 0 || class >= len(d.acc) {
		return 0
	}
	return float64(d.acc[class]) / decayOne
}

// advanceTo applies per-tick decay up to tick.
func (d *DecayCounter) advanceTo(tick int64) {
	for ; d.head < tick; d.head++ {
		for i, v := range d.acc {
			d.acc[i] = v - v>>d.shift
		}
	}
}

// ObserveAt implements Decoder. Out-of-range classes are dropped. A
// spike that lags the decision head (delivered late by observation
// lag) enters pre-decayed by its age, so the accumulator is exactly
// what an in-order delivery would have produced.
func (d *DecayCounter) ObserveAt(class int, tick int64) {
	if class < 0 || class >= len(d.acc) {
		return
	}
	d.advanceTo(tick)
	add := uint64(decayOne)
	for t := tick; t < d.head; t++ {
		add -= add >> d.shift
	}
	d.acc[class] += add
}

// decide is the gated argmax over the decayed accumulators.
func (d *DecayCounter) decide() (int, float64, bool) {
	var total uint64
	for _, v := range d.acc {
		total += v
	}
	if total == 0 {
		return -1, 0, false
	}
	best, bestV, second := 0, d.acc[0], uint64(0)
	for i, v := range d.acc[1:] {
		switch {
		case v > bestV:
			second = bestV
			best, bestV = i+1, v
		case v > second:
			second = v
		}
	}
	margin := float64(bestV-second) / decayOne
	ok := float64(total)/decayOne >= d.MinLevel && margin >= d.MinMargin
	return best, margin, ok
}

// DecideAt implements StreamDecoder: decay through tick, then the
// gated argmax.
func (d *DecayCounter) DecideAt(tick int64) (int, float64, bool) {
	d.advanceTo(tick)
	return d.decide()
}

// Decide implements Decoder: the gated argmax at the current head (-1
// when empty or gated out).
func (d *DecayCounter) Decide() int {
	class, _, ok := d.decide()
	if !ok {
		return -1
	}
	return class
}

// Reset implements Decoder.
func (d *DecayCounter) Reset() {
	for i := range d.acc {
		d.acc[i] = 0
	}
	d.head = 0
}

// Clone implements Decoder.
func (d *DecayCounter) Clone() Decoder {
	c := NewDecayCounter(len(d.acc), d.shift)
	c.MinLevel, c.MinMargin = d.MinLevel, d.MinMargin
	return c
}

// Interface checks: both windowed decoders serve anywhere a Decoder
// does, and expose the continuous-decision seam.
var (
	_ StreamDecoder = (*SlidingCounter)(nil)
	_ StreamDecoder = (*DecayCounter)(nil)
)
