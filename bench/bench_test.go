package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/neurogo/neurogo"
	"github.com/neurogo/neurogo/internal/remote"
	"github.com/neurogo/neurogo/internal/sim"
	"github.com/neurogo/neurogo/internal/system"
)

// stagedAgrees presents the first n inputs through the staged driver and
// through classify and requires identical classes.
func stagedAgrees(t *testing.T, d *stagedDriver, x [][]float64, n int, classify func(context.Context, []float64) (int, error)) {
	t.Helper()
	var p timeProbe
	for i := 0; i < n; i++ {
		want, err := classify(context.Background(), x[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.classify(x[i], &p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("input %d: staged driver says %d, Session.Classify %d", i, got, want)
		}
	}
}

func TestStagedDriverMatchesClassifyFlat(t *testing.T) {
	rig, err := newFlatRig()
	if err != nil {
		t.Fatal(err)
	}
	x, _ := rig.inputs(3)
	p, err := neurogo.NewPipeline(rig.mapping, rig.options()...)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sess := p.NewSession()
	stagedAgrees(t, newStagedDriver(rig, sess.Runner(), sess.Reset), x, 48, p.NewSession().Classify)
}

func TestStagedDriverMatchesClassifyTiled(t *testing.T) {
	rig, err := newConvRig(false)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := rig.inputs(3)
	st := rig.mapping.Stats
	p, err := neurogo.NewPipeline(rig.mapping, rig.options(neurogo.WithSystem(st.ChipCoresX, st.ChipCoresY))...)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sess := p.NewSession()
	d := newStagedDriver(rig, sess.Runner(), sess.Reset)
	stagedAgrees(t, d, x, 24, p.NewSession().Classify)

	// The recorded schedule replayed on a bare chip emits what the
	// Runner pass emitted.
	before := sess.Runner().Counters().OutputSpikes
	var tp timeProbe
	if _, err := d.classify(x[0], &tp); err != nil {
		t.Fatal(err)
	}
	emitted := sess.Runner().Counters().OutputSpikes - before
	rs, err := replay(neurogo.NewRunner(rig.mapping, neurogo.EngineEvent, 1).Backend(), &d.sched, true)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(rs.outSpikes) != emitted {
		t.Fatalf("replay emitted %d output spikes, the Runner pass %d", rs.outSpikes, emitted)
	}
}

// The sharded rig: the staged driver over decorated remote clients and
// byte-counting listeners must reproduce sequential Classify, and the
// decorators must change nothing — boundary totals equal an undecorated
// in-process sharded run.
func TestShardedRigAndDecoratorsPassThrough(t *testing.T) {
	rig, err := newConvRig(true)
	if err != nil {
		t.Fatal(err)
	}
	m := rig.mapping
	x, _ := rig.inputs(3)
	const n = 12

	shards, err := startShards(m, numShards, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.close()
	st := m.Stats
	cfg := system.Config{ChipCoresX: st.ChipCoresX, ChipCoresY: st.ChipCoresY}
	parts := system.PartitionChips(4, numShards)
	conns := make([]system.ShardConn, numShards)
	for i, addr := range shards.addrs {
		c, err := remote.Dial(m, cfg, addr, numShards, i, remote.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	wrapped, tcs := timed(conns)
	sys, err := system.NewShardedFrom(m.Chip, cfg, wrapped, parts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r := sim.NewTiledRunner(m, sys, sim.EngineEvent, 1)
	r.SetExchangeWindow(0)
	if r.ExchangeWindow() < 2 {
		t.Fatalf("exchange window %d, want a multi-tick window", r.ExchangeWindow())
	}

	ref, err := neurogo.NewPipeline(m, rig.options()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	stagedAgrees(t, newStagedDriver(rig, r, r.Reset), x, n, ref.NewSession().Classify)

	plain, err := neurogo.NewShardedRunner(m, cfg, numShards, neurogo.EngineEvent, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain.SetExchangeWindow(0)
	pd := newStagedDriver(rig, plain, plain.Reset)
	var tp timeProbe
	for i := 0; i < n; i++ {
		if _, err := pd.classify(x[i], &tp); err != nil {
			t.Fatal(err)
		}
	}
	gi, ge := r.BoundarySpikes()
	wi, we := plain.BoundarySpikes()
	if gi != wi || ge != we {
		t.Fatalf("decorated remote run intra/inter %d/%d, undecorated in-process %d/%d", gi, ge, wi, we)
	}
	if shards.bytes.Load() == 0 {
		t.Fatal("counting listener saw no bytes")
	}
	for i, tc := range tcs {
		if s := tc.take(); s.tickCalls == 0 || s.resetCalls != n || len(s.rtts) != s.tickCalls {
			t.Fatalf("shard %d decorator stats %+v", i, s)
		}
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate = 3000.0
	span := 20 * time.Second
	a := poissonSchedule(7, rate, span)
	if !reflect.DeepEqual(a, poissonSchedule(7, rate, span)) {
		t.Fatal("schedule is not a pure function of the seed")
	}
	if reflect.DeepEqual(a[:16], poissonSchedule(8, rate, span)[:16]) {
		t.Fatal("different seeds gave the same schedule")
	}
	if got := float64(len(a)) / span.Seconds(); math.Abs(got/rate-1) > 0.01 {
		t.Fatalf("rate %.1f/s, want %.0f/s within 1%%", got, rate)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("schedule not ascending")
		}
	}
}

func TestSliceStatistics(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 3, 2, 4})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles %v %v %v", q1, med, q3)
	}
	// Five slices of 100 ops each; slice k takes k+1 seconds and its ops
	// k+1 ms, except one 50 ms outlier in the last slice.
	var w windowStats
	t0 := time.Unix(0, 0)
	for k := 0; k < 5; k++ {
		s := slice{completed: 100}
		s.from.at = t0
		s.to.at = t0.Add(time.Duration(k+1) * time.Second)
		s.to.cpu = time.Duration(k+1) * time.Second
		s.to.mallocs = uint64(100 * (k + 1))
		for i := 0; i < 100; i++ {
			s.record(time.Duration(k+1)*time.Millisecond, true)
		}
		w = append(w, s)
	}
	w[4].latencies[0] = 50
	w[4].met--
	h := w.summarise()
	mid := func(name string) float64 { return h.slices[name][1] }
	if mid("latency_p50_ms") != 3 || mid("latency_p90_ms") != 3 {
		t.Errorf("median-of-slices p50 %v, p90 %v, want 3", mid("latency_p50_ms"), mid("latency_p90_ms"))
	}
	if want := 100.0 / 3; math.Abs(mid("throughput_per_s")-want) > 1e-9 {
		t.Errorf("throughput %v, want %v", mid("throughput_per_s"), want)
	}
	if mid("cpu_us_per_op") != 30000 || mid("allocs_per_op") != 3 {
		t.Errorf("cpu %v us/op, allocs %v/op", mid("cpu_us_per_op"), mid("allocs_per_op"))
	}
	if h.sloMet != 499.0/500 {
		t.Errorf("slo_met_frac %v", h.sloMet)
	}
	// A failed fast op and a slow successful op both miss.
	var s slice
	s.record(time.Millisecond, false)
	s.record(sloLimit+1, true)
	s.record(sloLimit, true)
	if s.met != 1 {
		t.Errorf("met %d, want 1", s.met)
	}
}

func TestDriverSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := driverSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	if got, want := driverSpread([]float64{2, 1}), 1.5/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("two-run spread %v, want %v", got, want)
	}
	if driverSpread([]float64{3, 3, 3, 3, 3}) != 0 {
		t.Error("constant runs must have no spread")
	}
}

func TestDetection(t *testing.T) {
	ends := []int64{100, 200, 300}
	// 100 detected 2 ticks late, 200 missed (next decision is past the
	// span), 300 detected 4 ticks late.
	recall, lat := detection(ends, []int64{50, 102, 103, 250, 304}, 10)
	if recall != 2.0/3 || lat != 3 {
		t.Fatalf("recall %v latency %v", recall, lat)
	}
}

// Every workload, both modes, short windows, correctness checks on: what
// -smoke runs for a second each.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, runConfig{seed: 5, seconds: 0.5, trace: trace, quiet: true})
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: %+v, %v", w.name, trace, res, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, trace, d.name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.name, v.Value)
				}
			}
		}
	}
}

// On flat_closed the stage times must account for the traced operation.
func TestStageTimesSumToOpTime(t *testing.T) {
	tr, err := tracedClassify("flat_closed", 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, k := range []string{"pipeline.reset_us_per_op", "codec.encode_us_per_op", "pipeline.linemap_us_per_op",
		"sim.inject_us_per_op", "sim.step_us_per_op", "codec.decode_us_per_op"} {
		sum += tr.metrics[k]
	}
	if math.Abs(sum/tr.opUS-1) > 0.15 {
		t.Fatalf("stages sum to %.1f us, traced op takes %.1f us", sum, tr.opUS)
	}
	if len(tr.spans.spans) == 0 || tr.spans.spans[0].Parent != -1 || tr.spans.spans[1].Parent != tr.spans.spans[0].ID {
		t.Fatal("spans are not an operation followed by its stages")
	}
}

// A wrong expectation must fail the run (main exits non-zero on any
// runWorkload error).
func TestCorruptedExpectationFails(t *testing.T) {
	w := workload{name: "flat_closed", build: func() (sut, error) {
		s, err := buildFlatClosed()
		if err == nil {
			s.(*classifySUT).corruptRef = true
		}
		return s, err
	}}
	res, err := runWorkload(w, runConfig{seed: 5, seconds: 0.1, quiet: true})
	if err == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted reference passed: %+v, %v", res, err)
	}
}

// BENCHMARK.json and the tables in main.go name the same things.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, bf.Workloads[i].Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v outside (0, setup_s's %v]", m.Name, m.Bound, bf.EndToEnd[0].Bound)
		}
	}
}
