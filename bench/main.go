// Command bench is the repository benchmark: five serving workloads,
// end-to-end metrics from an untraced run and per-layer metrics from a
// separate traced run. See README.md in this directory for every metric,
// each workload's rationale and how the layers are expected to interact.
//
// The driver runs it through run.sh as
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/neurogo/neurogo/internal/stats"
)

// metricDef names one metric of the benchmark. BENCHMARK.json carries
// the same names and units plus the regression bounds; a test keeps the
// two in step.
type metricDef struct {
	name, unit string
	sim        bool // simulated clock: exact for a fixed seed
}

var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"throughput_per_s", "1/s", false},
	{"latency_p50_ms", "ms", false},
	{"latency_p90_ms", "ms", false},
	{"cpu_us_per_op", "us", false},
	{"allocs_per_op", "count", false},
	{"alloc_bytes_per_op", "B", false},
	{"slo_met_frac", "frac", false},
	{"accuracy", "frac", true},
	{"model_energy_nj_per_op", "nJ", true},
	{"detect_latency_ticks", "ticks", true},
}

var perLayer = []metricDef{
	{"codec.encode_us_per_op", "us", false},
	{"codec.encode_allocs_per_op", "count", false},
	{"codec.spikes_in_per_op", "count", true},
	{"codec.decode_us_per_op", "us", false},
	{"codec.decode_allocs_per_op", "count", false},
	{"pipeline.linemap_us_per_op", "us", false},
	{"pipeline.linemap_allocs_per_op", "count", false},
	{"pipeline.reset_us_per_op", "us", false},
	{"pipeline.async.submit_us_p50", "us", false},
	{"pipeline.async.queue_wait_p50_ms", "ms", false},
	{"pipeline.async.queue_wait_p99_ms", "ms", false},
	{"pipeline.async.service_ewma_us", "us", false},
	{"pipeline.async.mean_batch", "count", false},
	{"pipeline.async.overhead_us_per_op", "us", false},
	{"pipeline.stream_inject_us_per_op", "us", false},
	{"pipeline.stream_tick_us_per_op", "us", false},
	{"pipeline.stream_overhead_us_per_op", "us", false},
	{"pipeline.decisions_per_op", "count", true},
	{"sim.inject_us_per_op", "us", false},
	{"sim.inject_allocs_per_op", "count", false},
	{"sim.injections_per_op", "count", true},
	{"sim.inject_self_us_per_op", "us", false},
	{"sim.step_us_per_op", "us", false},
	{"sim.step_allocs_per_op", "count", false},
	{"sim.collect_us_per_op", "us", false},
	{"sim.events_out_per_op", "count", true},
	{"chip.tick_us_per_op", "us", false},
	{"chip.inject_us_per_op", "us", false},
	{"chip.ticks_per_op", "count", true},
	{"chip.synaptic_events_per_op", "count", true},
	{"chip.routed_spikes_per_op", "count", true},
	{"chip.hops_per_op", "count", true},
	{"chip.out_spikes_per_op", "count", true},
	{"chip.idle_tick_frac", "frac", true},
	{"system.interchip_frac", "frac", true},
	{"system.inter_spikes_per_op", "count", true},
	{"system.intra_spikes_per_op", "count", true},
	{"system.tile_overhead_us_per_op", "us", false},
	{"system.shard_compute_us_per_op", "us", false},
	{"system.exchange_us_per_op", "us", false},
	{"remote.rpc_rtt_p50_us", "us", false},
	{"remote.rpc_rtt_p99_us", "us", false},
	{"remote.rpc_calls_per_op", "count", true},
	{"remote.rpc_us_per_op", "us", false},
	{"remote.wire_us_per_op", "us", false},
	{"remote.reset_us_per_op", "us", false},
	{"remote.inject_us_per_op", "us", false},
	{"remote.boundary_spikes_per_op", "count", true},
	{"remote.windows_per_op", "count", true},
	{"remote.wire_bytes_per_op", "B", false},
	{"loadgen.lag_p99_ms", "ms", false},
	{"loadgen.sent_per_s", "1/s", false},
	{"trace.overhead_frac", "frac", false},
	{"trace.spans", "count", false},
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	quiet    bool // suppress the human-readable report (A/A mode)
}

const (
	// A run builds its system under test at least minSetups times, and
	// keeps building until setupBudget is spent (sub-millisecond set-ups
	// need many repetitions for a steady median) or maxSetups is reached;
	// setup_s is the median, the last build is the one measured.
	minSetups   = 7
	maxSetups   = 301
	setupBudget = 300 * time.Millisecond
	// warmFrac of the measured window is run first, unmeasured.
	warmFrac = 0.1
	// Open-loop validity: in the median slice the generator may fire at
	// most this late at the 99th percentile (it normally fires within
	// 0.2 ms; a generator that cannot keep up is late in every slice,
	// while a hypervisor stall makes one or two slices late and is left
	// to slo_met_frac), and completions may trail sends by at most this
	// share when the last request is sent.
	maxLagP99MS = 1.0
	maxTrailing = 0.02
)

// runWorkload performs one run of one workload and returns its result.
// The error, if any, says why the result is not correct.
func runWorkload(w workload, cfg runConfig) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	if cfg.trace {
		var tr tracedResult
		var err error
		if w.name == "keyword_stream" {
			tr, err = tracedKeyword(cfg.seed, cfg.seconds)
		} else {
			tr, err = tracedClassify(w.name, cfg.seed, cfg.seconds)
		}
		res.Attempted, res.Failed = tr.attempted, tr.failed
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{tr.metrics[d.name], d.unit} // layers off the workload's path report 0
		}
		if err == nil && tr.failed > 0 {
			err = fmt.Errorf("%d operations disagreed with the reference", tr.failed)
		}
		if err == nil && cfg.traceOut != "" {
			err = tr.spans.write(cfg.traceOut)
		}
		res.Correct = err == nil
		return res, err
	}

	// Set-up, repeated: the median is the metric, the last one serves.
	var s sut
	var setups []float64
	for begin := time.Now(); len(setups) < minSetups || (time.Since(begin) < setupBudget && len(setups) < maxSetups); {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = w.build(); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	if err := s.prepare(cfg.seed); err != nil {
		return res, fmt.Errorf("prepare: %w", err)
	}

	var errs []error
	att, fail, err := s.verify()
	res.Attempted, res.Failed = att, fail
	if err != nil {
		errs = append(errs, err)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	warm := time.Duration(float64(window) * warmFrac)
	ws, open, att, fail := s.measure(cfg.seed, warm, window)
	res.Attempted += att
	res.Failed += fail
	sim, fail, err := s.finish()
	res.Failed += fail
	if err != nil {
		errs = append(errs, err)
	}
	if res.Failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d operations failed or disagreed with the reference", res.Failed, res.Attempted))
	}
	if open != nil {
		if open.lagP99MS > maxLagP99MS {
			errs = append(errs, fmt.Errorf("invalid run: load generator fired %.3f ms late at p99 in the median slice (limit %.1f ms)", open.lagP99MS, maxLagP99MS))
		}
		if open.trailingFrac > maxTrailing {
			errs = append(errs, fmt.Errorf("invalid run: completions trailed sends by %.1f%% at window end (limit %.0f%%)", 100*open.trailingFrac, 100*maxTrailing))
		}
	}

	h := ws.summarise()
	values := map[string]float64{
		"setup_s":                stats.Median(setups),
		"slo_met_frac":           h.sloMet,
		"accuracy":               sim.accuracy,
		"model_energy_nj_per_op": sim.energyNJ,
		"detect_latency_ticks":   sim.detectTicks,
	}
	for _, d := range endToEnd {
		v, ok := values[d.name]
		if !ok {
			v = h.slices[d.name][1] // the median slice
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	if !cfg.quiet {
		q1, _, q3 := quartiles(setups)
		fmt.Printf("# %s: %d set-ups, setup_s quartiles %.4f..%.4f; %d ops/slice over %d slices\n",
			w.name, len(setups), q1, q3, h.samples, numSlices)
		for _, d := range endToEnd {
			line := fmt.Sprintf("#   %-24s %14.6g %s", d.name, res.Metrics[d.name].Value, d.unit)
			if q, ok := h.slices[d.name]; ok {
				line += fmt.Sprintf("   (slice quartiles %.6g..%.6g)", q[0], q[2])
			}
			fmt.Println(line)
		}
		for _, name := range []string{"latency_p95_ms", "latency_p99_ms"} {
			q := h.slices[name]
			fmt.Printf("#   %-24s %14.6g ms   (slice quartiles %.6g..%.6g; diagnostic, not a gated metric)\n", name, q[1], q[0], q[2])
		}
		if open != nil {
			fmt.Printf("#   open loop: sent %.1f/s, generator lag p99 %.3f ms (median slice), trailing %.2f%%\n",
				open.sentPerS, open.lagP99MS, 100*open.trailingFrac)
		}
	}
	err = errors.Join(errs...)
	res.Correct = err == nil
	return res, err
}

// provenance prints what a reader needs to judge the numbers.
func provenance(cfg runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("# go %s, GOMAXPROCS %d, nproc %d, cpu %q, commit %s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, commit)
	fmt.Printf("# seed %d, window %.3gs (+%.0f%% warm-up) in %d slices, trace %v\n",
		cfg.seed, cfg.seconds, 100*warmFrac, numSlices, cfg.trace)
}

// emit prints a result the way the driver reads it.
func emit(w workload, res result, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
	}
	fmt.Printf("# %s: attempted %d, succeeded %d, failed %d\n", w.name, res.Attempted, res.Attempted-res.Failed, res.Failed)
	line, merr := json.Marshal(res)
	if merr != nil { // a NaN or infinite value: a benchmark bug, never a result
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func main() {
	var cfg runConfig
	var trace int
	name := flag.String("workload", "", "run one workload (default: all, untraced then traced)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (images, arrival times, motif stream)")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced run's spans to this file (JSON lines)")
	smoke := flag.Bool("smoke", false, "every workload for 1 s in both modes, correctness checks on")
	aa := flag.Int("aa", 0, "A/A self-check: run every workload this many times and compare spreads with BENCHMARK.json's bounds")
	flag.Parse()
	cfg.trace = trace != 0

	// go 1.24 ignores container CPU quotas; pin what the benchmark was
	// calibrated on and say so.
	runtime.GOMAXPROCS(2)

	switch {
	case *aa > 0:
		os.Exit(selfCheck(*aa, cfg))
	case *smoke:
		cfg.seconds = 1
		os.Exit(runAll(cfg, true))
	case *name == "":
		os.Exit(runAll(cfg, false))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	provenance(cfg)
	res, err := runWorkload(w, cfg)
	emit(w, res, err)
	if err != nil {
		os.Exit(1)
	}
}

// runAll runs every workload untraced and then traced, printing each
// result; smoke additionally lists every metric name it saw.
func runAll(cfg runConfig, smoke bool) int {
	code := 0
	for _, traced := range []bool{false, true} {
		cfg.trace = traced
		provenance(cfg)
		for _, w := range workloads {
			res, err := runWorkload(w, cfg)
			emit(w, res, err)
			if err != nil {
				code = 1
			}
			if smoke {
				names := make([]string, 0, len(res.Metrics))
				for k := range res.Metrics {
					names = append(names, k)
				}
				sort.Strings(names)
				fmt.Printf("# %s metrics: %s\n", w.name, strings.Join(names, " "))
			}
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	var data []byte
	var err error
	// The command runs from the checkout root; tests run from this directory.
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// selfCheck is the A/A test: the same code, seed and settings n times.
// Host-clock metrics must repeat within their bound by the driver's own
// statistic (driverSpread); simulated-clock metrics must repeat exactly.
func selfCheck(n int, cfg runConfig) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 runs")
		return 2
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: reading BENCHMARK.json: %v\n", err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	cfg.quiet, cfg.trace = true, false
	provenance(cfg)
	code := 0
	for _, w := range workloads {
		runs := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				code = 1
			}
			for k, v := range res.Metrics {
				runs[k] = append(runs[k], v.Value)
			}
		}
		fmt.Printf("# A/A %s, %d runs: median, min..max, quartile spread / median against the bound\n", w.name, n)
		for _, d := range endToEnd {
			v := runs[d.name]
			lo, hi, spread := stats.Min(v), stats.Max(v), driverSpread(v)
			verdict := "ok"
			switch {
			case d.sim && lo != hi:
				verdict, code = "DIFFERS (simulated clock must repeat exactly)", 1
			case d.name == "setup_s" && spread > bounds[d.name]:
				verdict = "over bound (reported only: the driver exempts set-up time from the spread rule)"
			case !d.sim && spread > bounds[d.name]:
				verdict, code = "OVER BOUND", 1
			}
			fmt.Printf("#   %-24s %-12.6g %.6g..%.6g  spread %6.2f%%  bound %5.1f%%  %s\n",
				d.name, stats.Median(v), lo, hi, 100*spread, 100*bounds[d.name], verdict)
		}
	}
	return code
}
