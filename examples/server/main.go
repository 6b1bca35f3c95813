// Server: the async serving backend end to end — train and compile the
// digit classifier (as in examples/digits), then serve the test set
// through an AsyncPipeline: concurrent clients submit images into a
// bounded queue, a pool of sessions classifies them as workers free up,
// and each client correlates its own completions through the
// per-request channels while the shared Results stream feeds a
// monitoring goroutine. The async front-end runs the full SLO-aware
// configuration: adaptive micro-batching, priority admission (a
// low-priority flood is shed with ErrShed while interactive traffic
// is untouched), serving metrics on a Prometheus /metrics endpoint,
// and a graceful SIGINT shutdown that drains every admitted request.
// The same inputs are also served through ClassifyBatch so the two
// serving modes' throughput and (bit-identical) predictions can be
// compared.
//
// The same model is then served across a 2x2 multi-chip tile
// (WithSystem): predictions stay bit-identical — tiling changes
// accounting, not routing — while Pipeline.Traffic exposes the
// chip-to-chip boundary spikes that tiled deployments are won or
// lost on. The tile is then split across two ShardServers on unix
// sockets (the wire protocol cmd/nshard serves across machines) and
// driven through WithRemoteSystem in lockstep, one RPC round-trip per
// tick per shard — still bit-identical.
//
// Finally two models — the flat digit classifier and a routed
// conv→pool→read-out stack — are served through one Registry: the
// multi-model front-end cold-starts each on first request, reports
// per-model hits, cold-start latency and live sessions, demotes the
// LRU model under a warm cap, and hot-swaps a recompiled mapping with
// zero downtime. Registry-served predictions are verified bit-identical
// to direct Pipeline serving throughout.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	netpkg "net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/neurogo/neurogo"
)

func main() {
	const (
		trainN  = 1200
		testN   = 256
		window  = 16
		clients = 4 // concurrent submitters
	)

	// 1. Train, quantise, compile — the standard digit rig.
	gen := neurogo.NewDigitGenerator(16, 0.03, 1, 42)
	xtr, ytr := gen.Batch(trainN)
	xte, yte := gen.Batch(testN)
	model, err := neurogo.TrainLinear(xtr, ytr, neurogo.NumDigitClasses,
		neurogo.TrainOptions{Epochs: 10, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	net := neurogo.NewNetwork()
	cls := neurogo.BuildClassifier(net, model.Ternarize(1.3), "digits",
		neurogo.DefaultClassifierParams())
	mapping, err := neurogo.Compile(net, neurogo.CompileOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	mkPipeline := func(m *neurogo.Mapping, extra ...neurogo.PipelineOption) *neurogo.Pipeline {
		opts := []neurogo.PipelineOption{
			neurogo.WithEncoder(neurogo.NewBernoulliEncoder(0.5, 99)),
			neurogo.WithDecoder(neurogo.NewCounterDecoder(neurogo.NumDigitClasses)),
			neurogo.WithLineMapper(neurogo.TwinLines(cls.LinesFor)),
			neurogo.WithClassMapper(cls.ClassOf),
			neurogo.WithWindow(window),
			neurogo.WithDrain(10),
		}
		p, err := neurogo.NewPipeline(m, append(opts, extra...)...)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	pipeline := func() *neurogo.Pipeline { return mkPipeline(mapping) }

	ctx := context.Background()

	// 2. Baseline: the synchronous batched path.
	batchP := pipeline()
	start := time.Now()
	batchPreds, err := batchP.ClassifyBatch(ctx, xte)
	if err != nil {
		log.Fatal(err)
	}
	batchDur := time.Since(start)

	// 3. The async path, now the full SLO-aware front-end: adaptive
	// micro-batching (up to 16 requests per dispatch, 200µs window),
	// priority admission with an SLO budget that sheds low-priority
	// work under pressure, and the serving metrics published at a
	// /metrics endpoint. The Results stream plays the serving-side
	// monitor (subscribe before the first Submit); each client keeps its
	// per-request channels, so completions correlate with inputs no
	// matter how submissions interleave across clients.
	asyncP := pipeline()
	workers := runtime.NumCPU()
	ap, err := asyncP.Async(
		neurogo.WithAsyncWorkers(workers),
		neurogo.WithQueueDepth(4*workers),
		neurogo.WithMaxBatch(16),
		neurogo.WithBatchWindow(200*time.Microsecond),
		neurogo.WithSLOBudget(50*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}

	// Tail-latency observability: the live metrics snapshot in
	// Prometheus text format on a loopback /metrics — serving counters,
	// gauges and latency summaries, plus the registry's per-model block
	// once the multi-model leg installs one.
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		ap.Metrics().WritePrometheus(w)
		if r := promRegistry.Load(); r != nil {
			r.Stats().WritePrometheus(w)
		}
	})
	lis, err := netpkg.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: http.DefaultServeMux}
	go httpSrv.Serve(lis)
	defer httpSrv.Close()

	// Graceful shutdown: SIGINT stops admission and drains the pool.
	// The example raises the signal itself once every request is in
	// flight; a real deployment gets it from the operator.
	sigCtx, stopSignals := signal.NotifyContext(ctx, os.Interrupt)
	defer stopSignals()

	results := ap.Results() // subscribe before the first Submit
	monitored := make(chan int, 1)
	go func() {
		served := 0
		for range results {
			served++
		}
		monitored <- served // stream closed: pool fully drained
	}()

	asyncPreds := make([]int, testN)
	start = time.Now()
	var wg sync.WaitGroup
	per := testN / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			// Interactive traffic: alternate high/normal priority.
			class := neurogo.PriorityNormal
			if c%2 == 0 {
				class = neurogo.PriorityHigh
			}
			chans := make([]<-chan neurogo.AsyncResult, hi-lo)
			for i, img := range xte[lo:hi] {
				// Blocks only when the queue is full.
				chans[i] = ap.SubmitPriority(ctx, class, img)
			}
			for i, ch := range chans {
				r := <-ch
				if r.Err != nil {
					log.Fatalf("image %d: %v", lo+i, r.Err)
				}
				asyncPreds[lo+i] = r.Class
			}
		}(c, c*per, (c+1)*per)
	}
	wg.Wait()
	asyncDur := time.Since(start)

	// Best-effort background flood: low-priority submissions are shed
	// with ErrShed — instead of queueing — once the queue fills or the
	// estimated wait crosses the SLO budget. High/normal traffic above
	// was never shed.
	const flood = 256
	shed, floodServed := 0, 0
	floodChans := make([]<-chan neurogo.AsyncResult, 0, flood)
	for i := 0; i < flood; i++ {
		floodChans = append(floodChans, ap.SubmitPriority(ctx, neurogo.PriorityLow, xte[i%testN]))
	}
	for _, ch := range floodChans {
		if r := <-ch; errors.Is(r.Err, neurogo.ErrShed) {
			shed++
		} else if r.Err == nil {
			floodServed++
		}
	}

	// Scrape the endpoint while the pool is still live.
	metricsURL := fmt.Sprintf("http://%s/metrics", lis.Addr())
	prom := scrapeMetrics(metricsURL, "neurogo_serving_")

	// Drain on SIGINT: every admitted request completes, none dropped.
	syscall.Kill(os.Getpid(), syscall.SIGINT)
	<-sigCtx.Done()
	ap.Close() // graceful: drains in-flight work, then Results closes
	served := <-monitored
	met := ap.Metrics()

	identical := true
	for i := range batchPreds {
		if asyncPreds[i] != batchPreds[i] {
			identical = false
			break
		}
	}
	score := func(preds []int) float64 {
		hits := 0
		for i, p := range preds {
			if p == yte[i] {
				hits++
			}
		}
		return float64(hits) / float64(testN) * 100
	}

	fmt.Printf("compiled onto %d cores; serving %d images, window %d ticks\n",
		mapping.Stats.UsedCores, testN, window)
	fmt.Printf("batched ClassifyBatch: %6.1f img/s  (accuracy %.1f%%)\n",
		float64(testN)/batchDur.Seconds(), score(batchPreds))
	fmt.Printf("async AsyncPipeline:   %6.1f img/s  (accuracy %.1f%%, %d clients, %d workers)\n",
		float64(testN)/asyncDur.Seconds(), score(asyncPreds), clients, workers)
	fmt.Printf("async == batched predictions: %v\n", identical)
	fmt.Printf("micro-batching: %d dispatches, mean batch %.1f (max %d, window %v)\n",
		met.Batches, met.MeanBatch, met.MaxBatch, met.BatchWindow)
	fmt.Printf("latency: queue-wait p50 %v p99 %v, end-to-end p50 %v p99 %v\n",
		met.QueueWait.P50.Round(time.Microsecond), met.QueueWait.P99.Round(time.Microsecond),
		met.EndToEnd.P50.Round(time.Microsecond), met.EndToEnd.P99.Round(time.Microsecond))
	fmt.Printf("low-priority flood: %d submitted, %d served, %d shed (ErrShed; high/normal never shed)\n",
		flood, floodServed, shed)
	fmt.Println(prom)
	dropped := int(met.Submitted) - served
	fmt.Printf("graceful shutdown: SIGINT received, pool drained — %d admitted, %d dropped\n",
		served, dropped)

	usage := neurogo.PipelineUsageOf(asyncP, true)
	report := neurogo.DefaultEnergyCoefficients().Evaluate(usage)
	fmt.Printf("energy per classification: %.1f nJ (async pool, time-multiplexed pricing)\n",
		report.TotalPJ/float64(testN)*1e-3)

	// 4. One logical model across a 2x2 multi-chip tile. The network is
	// recompiled onto an even grid so it tiles exactly; the serving code
	// is unchanged — the backend seam is below the pipeline.
	st := mapping.Stats
	sysMapping, err := neurogo.Compile(net, neurogo.CompileOptions{
		Seed: 1, Width: st.GridWidth + st.GridWidth%2, Height: st.GridHeight + st.GridHeight%2,
	})
	if err != nil {
		log.Fatal(err)
	}
	sysSt := sysMapping.Stats
	sysP := mkPipeline(sysMapping, neurogo.WithSystem(sysSt.GridWidth/2, sysSt.GridHeight/2))
	// The recompiled grid can place differently, so compare against a
	// single-chip pipeline over the same mapping, not against batchPreds.
	refP := mkPipeline(sysMapping)
	start = time.Now()
	sysPreds, err := sysP.ClassifyBatch(ctx, xte)
	if err != nil {
		log.Fatal(err)
	}
	sysDur := time.Since(start)
	refPreds, err := refP.ClassifyBatch(ctx, xte)
	if err != nil {
		log.Fatal(err)
	}
	tiled := true
	for i := range sysPreds {
		if sysPreds[i] != refPreds[i] {
			tiled = false
			break
		}
	}
	bt := neurogo.PipelineTrafficOf(sysP)
	fmt.Printf("multi-chip 2x2 tile:   %6.1f img/s  (accuracy %.1f%%, %d chips)\n",
		float64(testN)/sysDur.Seconds(), score(sysPreds), bt.Chips)
	fmt.Printf("tiled == single-chip predictions: %v\n", tiled)
	fmt.Printf("boundary traffic: %d intra-chip, %d inter-chip spikes (%.1f%% inter), busiest link %d",
		bt.IntraChip, bt.InterChip, bt.InterChipFraction*100, bt.BusiestLink)
	if bt.BusiestSrc >= 0 {
		fmt.Printf(" (chip %d -> %d)", bt.BusiestSrc, bt.BusiestDst)
	}
	fmt.Println()
	if bt.IntraChip+bt.InterChip == 0 {
		fmt.Println("(the flat classifier has no core-to-core edges — it tiles for free;")
		fmt.Println(" conv stacks and relay chains are where boundary traffic appears)")
	}
	sysUsage := neurogo.PipelineUsageOf(sysP, true)
	sysReport := neurogo.DefaultEnergyCoefficients().Evaluate(sysUsage)
	fmt.Printf("tiled energy per classification: %.1f nJ (%.1f nJ of it chip-to-chip links)\n",
		sysReport.TotalPJ/float64(testN)*1e-3, sysReport.InterChipPJ/float64(testN)*1e-3)

	// 5. The same tile split across shard servers: the grid recompiled
	// with the chip tiling recorded (λ=0, so placement is unchanged),
	// each half hosted by a ShardServer on a unix socket — the exact
	// wire protocol cmd/nshard serves across machines — and the pipeline
	// pointed at the sockets instead of an in-process backend.
	remMapping, err := neurogo.Compile(net, neurogo.CompileOptions{
		Seed: 1, Width: sysSt.GridWidth, Height: sysSt.GridHeight,
		ChipCoresX: sysSt.GridWidth / 2, ChipCoresY: sysSt.GridHeight / 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	sockDir, err := os.MkdirTemp("", "neurogo-shards")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(sockDir)
	const shards = 2
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv, err := neurogo.NewShardServer(remMapping, shards, i)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = filepath.Join(sockDir, fmt.Sprintf("shard%d.sock", i))
		go srv.ListenAndServe("unix", addrs[i])
	}
	for _, addr := range addrs { // wait until both shards accept
		for {
			conn, err := netpkg.Dial("unix", addr)
			if err == nil {
				conn.Close()
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	remP := mkPipeline(remMapping, neurogo.WithRemoteSystem(addrs...))
	defer remP.Close()
	remRefP := mkPipeline(remMapping, neurogo.WithSystem(sysSt.GridWidth/2, sysSt.GridHeight/2))
	start = time.Now()
	remPreds, err := remP.ClassifyBatch(ctx, xte)
	if err != nil {
		log.Fatal(err)
	}
	remDur := time.Since(start)
	remRefPreds, err := remRefP.ClassifyBatch(ctx, xte)
	if err != nil {
		log.Fatal(err)
	}
	distributed := true
	for i := range remPreds {
		if remPreds[i] != remRefPreds[i] {
			distributed = false
			break
		}
	}
	rbt := neurogo.PipelineTrafficOf(remP)
	fmt.Printf("distributed %d shards: %6.1f img/s  (accuracy %.1f%%, one RPC round-trip per tick per shard)\n",
		shards, float64(testN)/remDur.Seconds(), score(remPreds))
	fmt.Printf("distributed == in-process tile predictions: %v\n", distributed)
	fmt.Printf("distributed boundary traffic: %d intra-chip, %d inter-chip spikes (%.1f%% inter)\n",
		rbt.IntraChip, rbt.InterChip, rbt.InterChipFraction*100)

	// 6. The multi-model front-end: the flat classifier and a routed
	// conv stack behind one Registry.
	serveRegistry(ctx, mapping, cls, xte, batchPreds, metricsURL)
}

// promRegistry is the registry the /metrics handler appends per-model
// families for, once the multi-model leg has created one.
var promRegistry atomic.Pointer[neurogo.Registry]

// scrapeMetrics GETs the Prometheus endpoint and condenses the
// families matching prefix into one report line — the same text
// format 0.0.4 payload a Prometheus server would poll.
func scrapeMetrics(url, prefix string) string {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Sprintf("prometheus scrape failed: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Sprintf("prometheus scrape failed: %v", err)
	}
	families, samples := 0, 0
	headline := ""
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "+prefix):
			families++
		case strings.HasPrefix(line, "#") || line == "":
		case strings.HasPrefix(line, prefix):
			samples++
			if headline == "" && strings.Contains(line, "_total") {
				headline = line
			}
		}
	}
	return fmt.Sprintf("prometheus %s: %d %s* families, %d samples (e.g. %s)",
		url, families, prefix, samples, headline)
}

// serveRegistry runs the multi-model leg: two models of very different
// shapes — the flat digit classifier (no core-to-core edges) and a
// conv→pool→read-out stack (relay-routed, deep) — registered in one
// Registry and served through a single front-end, with per-model stats,
// a warm-cap eviction demo and a zero-downtime hot swap. Every
// registry-served prediction set is checked bit-for-bit against the
// reference: flatPreds for the flat model (computed by the batched leg)
// and a directly-constructed Pipeline for the conv model.
func serveRegistry(ctx context.Context, flatMapping *neurogo.Mapping,
	cls *neurogo.Classifier, xte [][]float64, flatPreds []int, metricsURL string) {

	// Build the second model: conv → OR-pool → feature read-out, the
	// routed stack from examples/conv, trained on the matching
	// float-side features.
	const (
		imgSize    = 16
		stride     = 1
		convThr    = 2
		poolWin    = 2
		convWindow = 8
		convTestN  = 64
	)
	gen := neurogo.NewDigitGenerator(imgSize, 0.02, 2, 42)
	xtr, ytr := gen.Batch(400)
	kernels := neurogo.OrientedKernels()
	convW := (imgSize-kernels[0].Size)/stride + 1
	feat := make([][]float64, len(xtr))
	for i, img := range xtr {
		f := neurogo.ConvFeatures(img, imgSize, kernels, stride, convThr)
		feat[i] = neurogo.FloatPool(f, len(kernels), convW, convW, poolWin)
	}
	fm, err := neurogo.TrainLinear(feat, ytr, neurogo.NumDigitClasses,
		neurogo.TrainOptions{Epochs: 8, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	convNet := neurogo.NewNetwork()
	conv, err := neurogo.BuildConv2D(convNet, "conv", imgSize, imgSize, kernels, stride, convThr)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := neurogo.BuildPool2D(convNet, conv, "pool", poolWin)
	if err != nil {
		log.Fatal(err)
	}
	fc, err := neurogo.BuildFeatureClassifier(convNet, fm.Ternarize(1.3), pool, "out",
		neurogo.DefaultClassifierParams())
	if err != nil {
		log.Fatal(err)
	}
	convMapping, err := neurogo.Compile(convNet, neurogo.CompileOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	convX, _ := gen.Batch(convTestN)

	flatOpts := []neurogo.PipelineOption{
		neurogo.WithEncoder(neurogo.NewBernoulliEncoder(0.5, 99)),
		neurogo.WithDecoder(neurogo.NewCounterDecoder(neurogo.NumDigitClasses)),
		neurogo.WithLineMapper(neurogo.TwinLines(cls.LinesFor)),
		neurogo.WithClassMapper(cls.ClassOf),
		neurogo.WithWindow(16),
		neurogo.WithDrain(10),
	}
	convOpts := []neurogo.PipelineOption{
		neurogo.WithEncoder(neurogo.NewBinaryEncoder(0.5, convWindow)),
		neurogo.WithDecoder(neurogo.NewCounterDecoder(neurogo.NumDigitClasses)),
		neurogo.WithLineMapper(neurogo.TwinLines(conv.LinesFor)),
		neurogo.WithClassMapper(fc.ClassOf),
		neurogo.WithWindow(convWindow),
		neurogo.WithDrain(12),
	}

	// The conv reference: direct Pipeline serving on the same mapping.
	refConvP, err := neurogo.NewPipeline(convMapping, convOpts...)
	if err != nil {
		log.Fatal(err)
	}
	convRef, err := refConvP.ClassifyBatch(ctx, convX)
	if err != nil {
		log.Fatal(err)
	}
	refConvP.Close()

	identical := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	// One front-end, MaxWarm 1: the two models contend for a single
	// warm slot, so serving them alternately exercises the LRU path.
	r := neurogo.NewRegistry(neurogo.RegistryConfig{MaxWarm: 1})
	defer r.Close()
	promRegistry.Store(r) // /metrics now appends the per-model block
	if err := r.Register("digits-flat", flatMapping, flatOpts...); err != nil {
		log.Fatal(err)
	}
	if err := r.Register("conv-routed", convMapping, convOpts...); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n-- model registry: %d models behind one front-end (MaxWarm 1) --\n",
		len(r.Names()))

	// Cold start each model; the second warm-up evicts the first.
	regFlat, err := r.ClassifyBatch(ctx, "digits-flat", xte)
	if err != nil {
		log.Fatal(err)
	}
	regConv, err := r.ClassifyBatch(ctx, "conv-routed", convX)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registry == direct predictions: flat %v, conv %v\n",
		identical(regFlat, flatPreds), identical(regConv, convRef))

	// Serving the flat model again re-warms it from the registered
	// mapping (and evicts the conv pool in turn) — still bit-identical.
	reFlat, err := r.ClassifyBatch(ctx, "digits-flat", xte)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-evict reload bit-identical: %v\n", identical(reFlat, flatPreds))

	// Zero-downtime hot swap: recompile the conv network (a stand-in
	// for a retrained model) and cut the serving front-end over to it.
	// Requests keep flowing while the old pool drains.
	swapped, err := neurogo.Compile(convNet, neurogo.CompileOptions{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := r.Swap("conv-routed", swapped, convOpts...); err != nil {
		log.Fatal(err)
	}
	postSwap, err := r.ClassifyBatch(ctx, "conv-routed", convX)
	if err != nil {
		log.Fatal(err)
	}
	// A different placement, same logical network: the swap changes the
	// chip image, not the function it computes.
	fmt.Printf("post-swap bit-identical to direct serving: %v\n", identical(postSwap, convRef))

	st := r.Stats()
	fmt.Printf("%-12s %5s %5s %5s %6s %5s %8s %12s %10s\n",
		"model", "reqs", "hits", "cold", "evict", "swaps", "sessions", "cold-start", "p99")
	for _, m := range st.Models {
		fmt.Printf("%-12s %5d %5d %5d %6d %5d %8d %12s %10s\n",
			m.Name, m.Requests, m.Hits, m.ColdStarts, m.Evictions, m.Swaps,
			m.LiveSessions, m.LastColdStart.Round(time.Microsecond),
			m.Latency.P99.Round(time.Microsecond))
	}
	fmt.Printf("registry: %d registered, %d warm, %d live sessions, %d evictions\n",
		st.Registered, st.Warm, st.LiveSessions, st.Evictions)
	fmt.Println(scrapeMetrics(metricsURL, "neurogo_model_"))
}
