package pipeline

// SLO observability core for the async front-end: a lock-cheap
// log-linear latency histogram (HDR-style, fixed memory, atomic
// buckets), the per-front-end counter block, and the Metrics snapshot
// returned by AsyncPipeline.Metrics().
//
// The histogram trades a bounded relative error for wait-free writes:
// buckets are spaced 16 per power-of-two octave of nanoseconds, so any
// reported quantile is within ~6% of the true value. Observe is three
// atomic adds plus a CAS-max — cheap enough to sit on the per-request
// serving path without showing up in profiles.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histSubBits sub-bucket bits per octave: 2^histSubBits linear
	// sub-buckets between consecutive powers of two.
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	// Bucket 0..histSubCount-1 hold exact nanosecond values below
	// histSubCount; every octave above contributes histSubCount more.
	histBuckets = histSubCount * (64 - histSubBits + 1)
)

// LatencyHistogram is a fixed-size log-linear histogram of durations.
// The zero value is ready to use; all methods are safe for concurrent
// use. Memory is constant (~8 KiB) regardless of the value range.
type LatencyHistogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	max    atomic.Uint64 // nanoseconds
}

// Observe records one duration. Negative durations clamp to zero.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	h.counts[histBucket(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// histBucket maps a nanosecond value to its bucket index.
func histBucket(ns uint64) int {
	if ns < histSubCount {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 // exponent of the leading bit, >= histSubBits
	sub := (ns >> (uint(e) - histSubBits)) & (histSubCount - 1)
	return (e-histSubBits+1)*histSubCount + int(sub)
}

// histUpper returns the largest value a bucket can hold — the value
// quantiles report, so estimates err high (conservative for SLOs).
func histUpper(idx int) time.Duration {
	if idx < histSubCount {
		return time.Duration(idx)
	}
	g := idx / histSubCount // >= 1
	sub := idx % histSubCount
	e := g + histSubBits - 1
	return time.Duration((uint64(histSubCount+sub+1) << (uint(e) - histSubBits)) - 1)
}

// LatencyStats is a point-in-time summary of a LatencyHistogram.
type LatencyStats struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot summarises the histogram. Under concurrent Observe calls the
// snapshot is approximate (buckets are read without a global lock), but
// every recorded sample is eventually reflected.
func (h *LatencyHistogram) Snapshot() LatencyStats {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	st := LatencyStats{
		Count: total,
		Max:   time.Duration(h.max.Load()),
	}
	if total == 0 {
		return st
	}
	if n := h.count.Load(); n > 0 {
		st.Mean = time.Duration(h.sum.Load() / n)
	}
	st.P50 = histQuantile(&counts, total, 50)
	st.P95 = histQuantile(&counts, total, 95)
	st.P99 = histQuantile(&counts, total, 99)
	return st
}

// histQuantile returns the upper bound of the bucket containing the
// pct-th percentile sample (pct in 1..100).
func histQuantile(counts *[histBuckets]uint64, total uint64, pct uint64) time.Duration {
	target := (total*pct + 99) / 100 // ceil(total * pct/100)
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return histUpper(i)
		}
	}
	return histUpper(histBuckets - 1)
}

// asyncMetrics is the live counter block of one AsyncPipeline. All
// fields are atomics; the serving hot path never takes a lock for
// observability.
type asyncMetrics struct {
	submitted atomic.Uint64 // admitted into the queue
	completed atomic.Uint64 // results delivered (including failures)
	failed    atomic.Uint64 // completions carrying a non-nil error
	rejected  atomic.Uint64 // refused at Submit: closed front-end or caller ctx done
	shed      atomic.Uint64 // low-priority work refused by admission control
	expired   atomic.Uint64 // failed with ErrDeadline: SLO budget lapsed in queue
	inFlight  atomic.Int64  // requests currently on a worker

	// Streaming front-end (OpenStream) counters.
	streamsOpened   atomic.Uint64 // streams opened
	streamsClosed   atomic.Uint64 // streams ended by Drain
	streamFrames    atomic.Uint64 // ticks advanced across all streams
	streamDecisions atomic.Uint64 // continuous decisions delivered

	batches         atomic.Uint64 // dispatches by the micro-batcher
	batchedRequests atomic.Uint64 // requests carried by those dispatches
	fullBatches     atomic.Uint64 // dispatched because the batch filled
	deadlineBatches atomic.Uint64 // dispatched because the batch window expired
	drainBatches    atomic.Uint64 // dispatched short because the queue ran dry

	// serviceEWMA is an exponentially-weighted moving average of
	// per-request service time in nanoseconds (alpha = 1/8), seeding
	// the estimated-wait admission check.
	serviceEWMA atomic.Uint64

	queueWait     LatencyHistogram // submit-accept -> serve-start
	endToEnd      LatencyHistogram // submit-accept -> result delivered
	streamLatency LatencyHistogram // one stream operation (Tick/Push/Present/Drain)

	// Per-admission-class splits of queueWait/endToEnd, indexed by
	// Priority. The aggregate histograms above stay authoritative; the
	// splits let an operator see whether priority scheduling actually
	// protects the high class's tail under load.
	classQueueWait [numPriorities]LatencyHistogram
	classEndToEnd  [numPriorities]LatencyHistogram
}

// observeService folds one measured service time into the EWMA.
func (m *asyncMetrics) observeService(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	for {
		old := m.serviceEWMA.Load()
		next := ns
		if old != 0 {
			next = old - old/8 + ns/8
		}
		if m.serviceEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// dispatchCause records why the micro-batcher closed a batch.
type dispatchCause int

const (
	causeFull     dispatchCause = iota // batch reached MaxBatch
	causeDeadline                      // batch window expired
	causeDrain                         // queue ran dry (or front-end closing)
)

func (m *asyncMetrics) recordBatch(size int, cause dispatchCause) {
	m.batches.Add(1)
	m.batchedRequests.Add(uint64(size))
	switch cause {
	case causeFull:
		m.fullBatches.Add(1)
	case causeDeadline:
		m.deadlineBatches.Add(1)
	case causeDrain:
		m.drainBatches.Add(1)
	}
}

// Metrics is a point-in-time snapshot of an AsyncPipeline's serving
// state: configuration echo, gauges, counters, and latency summaries.
// It marshals cleanly to JSON (durations as nanoseconds); WritePrometheus
// renders it for a scrape endpoint.
type Metrics struct {
	// Configuration echo.
	Workers     int
	QueueCap    int
	MaxBatch    int
	BatchWindow time.Duration
	SLOBudget   time.Duration

	// Gauges.
	QueueDepth    int           // requests admitted but not yet on a worker
	InFlight      int           // requests currently on a worker
	ServiceEWMA   time.Duration // smoothed per-request service time
	EstimatedWait time.Duration // queue depth x EWMA / workers — the shed signal

	// Counters.
	Submitted uint64
	Completed uint64
	Failed    uint64
	Rejected  uint64
	Shed      uint64
	Expired   uint64 // failed with ErrDeadline at dequeue: budget lapsed while queued

	// Micro-batcher counters (zero when MaxBatch <= 1).
	Batches         uint64
	BatchedRequests uint64
	FullBatches     uint64
	DeadlineBatches uint64
	DrainBatches    uint64
	MeanBatch       float64

	// Streaming front-end (OpenStream).
	StreamsOpen     int    // streams opened and not yet drained
	StreamsOpened   uint64 // streams opened
	StreamsClosed   uint64 // streams ended by Drain
	StreamFrames    uint64 // ticks advanced across all streams
	StreamDecisions uint64 // continuous decisions delivered

	// Latency summaries.
	QueueWait     LatencyStats
	EndToEnd      LatencyStats
	StreamLatency LatencyStats // one stream operation (Tick/Push/Present/Drain)

	// PerPriority splits QueueWait/EndToEnd by admission class, in
	// Priority order (high, normal, low). Always length 3; classes with
	// no traffic carry zero stats.
	PerPriority []PriorityLatency
}

// PriorityLatency is one admission class's slice of the submit-path
// latency accounting: how long that class's requests queued and how
// long until their results were delivered. Under load these diverge by
// design — strict priority dequeueing holds the high class's queue
// wait down by letting the low class's grow.
type PriorityLatency struct {
	Class     string // "high", "normal", "low"
	QueueWait LatencyStats
	EndToEnd  LatencyStats
}
