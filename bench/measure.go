package main

// Measurement machinery shared by the workloads: the slice sampler
// (every timing metric is a median over equal slices of the window, so
// one noisy-neighbour burst moves one slice, not the result), the
// closed-loop and open-loop load generators, and the Poisson schedule.

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/neurogo/neurogo"
	"github.com/neurogo/neurogo/internal/stats"
)

const (
	// numSlices is how many equal slices a measured window is cut into.
	// Twenty, because the reference box stalls for tens of milliseconds
	// a few times per window: short slices confine a stall to one or two
	// of them, and the median ignores those.
	numSlices = 20
	// sloLimit is the latency limit of every workload: an operation that
	// fails, or completes later than this after it was due, misses.
	sloLimit = 10 * time.Millisecond
)

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return stats.Percentile(xs, 25), stats.Percentile(xs, 50), stats.Percentile(xs, 75)
}

// driverSpread is the statistic the benchmark driver accepts or rejects a
// metric by: the distance between the first and third quartile of runs,
// as Python's statistics.quantiles(runs, n=4) gives them (the exclusive
// method), as a share of the runs' median. It needs at least two runs.
func driverSpread(runs []float64) float64 {
	xs := append([]float64(nil), runs...)
	sort.Float64s(xs)
	n := len(xs)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	med := stats.Median(xs)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// resourceMark is one reading of the process-wide resource clocks.
type resourceMark struct {
	at      time.Time
	cpu     time.Duration // user+sys of the whole process
	mallocs uint64
	bytes   uint64
}

func markResources() resourceMark {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resourceMark{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		at:      time.Now(),
	}
}

// slice is one of the numSlices equal parts of a measured window.
type slice struct {
	from, to  resourceMark
	latencies []float64 // ms, one per operation attributed to the slice
	completed int       // operations that finished inside the slice
	met       int       // operations that succeeded within sloLimit
}

// record attributes one operation to the slice.
func (s *slice) record(latency time.Duration, ok bool) {
	s.latencies = append(s.latencies, float64(latency)/float64(time.Millisecond))
	if ok && latency <= sloLimit {
		s.met++
	}
}

// windowStats is a measured window: its slices in order.
type windowStats []slice

// hostMetrics are the host-clock end-to-end metrics of one window.
type hostMetrics struct {
	// slices holds, for each metric computed per slice, the first
	// quartile, median and third quartile over the slices; the median is
	// the metric's value.
	slices  map[string][3]float64
	sloMet  float64 // share of the window's operations that met sloLimit
	samples int     // operations per slice, on average
}

func (w windowStats) summarise() hostMetrics {
	col := map[string][]float64{}
	add := func(k string, v float64) { col[k] = append(col[k], v) }
	var ops, met int
	for i := range w {
		s := &w[i]
		if len(s.latencies) == 0 {
			continue // a window shorter than a few operations leaves slices empty
		}
		k := float64(len(s.latencies))
		add("throughput_per_s", float64(s.completed)/s.to.at.Sub(s.from.at).Seconds())
		add("latency_p50_ms", stats.Percentile(s.latencies, 50))
		add("latency_p90_ms", stats.Percentile(s.latencies, 90))
		add("latency_p95_ms", stats.Percentile(s.latencies, 95)) // p95 and p99: diagnostics only, see README
		add("latency_p99_ms", stats.Percentile(s.latencies, 99))
		add("cpu_us_per_op", float64((s.to.cpu-s.from.cpu).Microseconds())/k)
		add("allocs_per_op", float64(s.to.mallocs-s.from.mallocs)/k)
		add("alloc_bytes_per_op", float64(s.to.bytes-s.from.bytes)/k)
		ops += len(s.latencies)
		met += s.met
	}
	h := hostMetrics{slices: map[string][3]float64{}, samples: ops / len(w), sloMet: float64(met) / float64(ops)}
	for k, v := range col {
		q1, med, q3 := quartiles(v)
		h.slices[k] = [3]float64{q1, med, q3}
	}
	return h
}

// closedLoop is one client that issues its next operation only after the
// previous one returned: warm-up first, then a window of numSlices equal
// slices. op(i) runs operation i and reports whether it succeeded with
// the expected output. first is the index of the first operation.
func closedLoop(warm, window time.Duration, first int, op func(i int) bool) (w windowStats, attempted, failed int) {
	i := first
	for end := time.Now().Add(warm); time.Now().Before(end); i++ {
		attempted++
		if !op(i) {
			failed++
		}
	}
	w = make(windowStats, numSlices)
	per := window / numSlices
	for k := range w {
		s := &w[k]
		if k == 0 {
			s.from = markResources()
		} else {
			s.from = w[k-1].to
		}
		end := s.from.at.Add(per)
		t0 := time.Now()
		for t0.Before(end) {
			ok := op(i)
			t1 := time.Now()
			s.record(t1.Sub(t0), ok)
			if !ok {
				failed++
			}
			i++
			t0 = t1
		}
		s.completed = len(s.latencies)
		attempted += s.completed
		s.to = markResources()
	}
	return w, attempted, failed
}

// poissonSchedule returns the due offsets of a Poisson arrival process
// of the given rate over [0, span): a pure function of its arguments.
func poissonSchedule(seed uint64, rate float64, span time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(int64(seed)))
	due := make([]time.Duration, 0, int(rate*span.Seconds()*1.05)+16)
	for t := r.ExpFloat64() / rate; ; t += r.ExpFloat64() / rate {
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}

// openStats is what the open loop adds to the window: how late the
// generator fired, and whether completions kept up with sends.
type openStats struct {
	lagP99MS     float64 // median over slices of the slice's 99th-percentile lag
	sentPerS     float64
	trailingFrac float64 // share of sent requests not yet complete when the last one was sent
	submitP50US  float64
}

// openLoop offers requests to ap on the schedule due (offsets from the
// start; those before warm are warm-up), regardless of how fast they
// complete. One goroutine generates and collects: between sends it polls
// the clock and the result channels of the requests in flight, so each
// request is timed from its due time to the moment its result is
// available, without a wake-up of the measuring side in between.
//
// The generator never sleeps or yields: the Go runtime rounds short
// sleeps up to a millisecond, a goroutine that leaves its processor waits
// unboundedly to get one back under load, and either error feeds back
// into the queue it is measuring. It therefore occupies one processor,
// as a client machine would, and the system under test has the rest.
// check(i, class) reports whether request i's class is the expected one.
func openLoop(ap *neurogo.AsyncPipeline, due []time.Duration, warm, window time.Duration,
	input func(i int) []float64, check func(i, class int) bool) (w windowStats, o openStats, attempted, failed int) {

	n := len(due)
	doneAt := make([]time.Duration, n) // 0 = never completed
	bad := make([]bool, n)
	type pending struct {
		i  int
		ch <-chan neurogo.AsyncResult
	}
	var flight []pending // in submission order
	ctx := context.Background()
	start := time.Now()
	// poll collects whatever results are available. Two workers finish
	// nearly in order, so only the oldest few requests need a look.
	poll := func() {
		for j := 0; j < len(flight) && j < 8; j++ {
			select {
			case r := <-flight[j].ch:
				i := flight[j].i
				doneAt[i] = time.Since(start)
				bad[i] = r.Err != nil || !check(i, r.Class)
				flight = append(flight[:j], flight[j+1:]...)
				j--
			default:
			}
		}
	}

	per := window / numSlices
	marks := make([]resourceMark, 0, numSlices+1)
	lags := make([][]float64, numSlices) // generator lag, by the slice of the due time
	sent := 0
	submits := make([]float64, 0, n)
	var lastSent time.Duration
	for i, d := range due {
		for time.Since(start) < d {
			poll()
		}
		if len(marks) <= numSlices && d >= warm+time.Duration(len(marks))*per {
			marks = append(marks, markResources())
		}
		t0 := time.Since(start)
		ch := ap.Submit(ctx, input(i))
		t1 := time.Since(start)
		flight = append(flight, pending{i, ch})
		if d >= warm {
			if k := int((d - warm) / per); k < numSlices {
				lags[k] = append(lags[k], float64(t0-d)/float64(time.Millisecond))
			}
			sent++
			submits = append(submits, float64(t1-t0)/float64(time.Microsecond))
		}
		lastSent = t1
	}
	for len(marks) <= numSlices {
		marks = append(marks, markResources())
	}
	o.trailingFrac = float64(len(flight)) / float64(n)
	// Whatever is still queued gets a bounded grace period.
	for grace := time.Now().Add(5 * time.Second); len(flight) > 0 && time.Now().Before(grace); {
		poll()
	}

	w = make(windowStats, numSlices)
	for k := range w {
		w[k].from, w[k].to = marks[k], marks[k+1]
	}
	for i, d := range due {
		attempted++
		miss := doneAt[i] == 0 || bad[i]
		if miss {
			failed++
		}
		if d < warm {
			continue
		}
		if k := int((d - warm) / per); k < numSlices {
			lat := 10 * sloLimit // a request that never completed misses by any measure
			if doneAt[i] != 0 {
				lat = doneAt[i] - d
			}
			w[k].record(lat, !miss)
		}
		if doneAt[i] >= warm {
			if k := int((doneAt[i] - warm) / per); k < numSlices {
				w[k].completed++
			}
		}
	}
	// The median slice, like every timing: one hypervisor stall makes a
	// slice late, a generator that cannot keep up makes them all late.
	var lagP99 []float64
	for _, l := range lags {
		if len(l) > 0 {
			lagP99 = append(lagP99, stats.Percentile(l, 99))
		}
	}
	o.lagP99MS = stats.Median(lagP99)
	o.submitP50US = stats.Percentile(submits, 50)
	o.sentPerS = float64(sent) / (lastSent - warm).Seconds()
	return w, o, attempted, failed
}
