// Command nsim compiles and runs a spiking network described by a JSON
// spec (see Spec in spec.go and examples/specs/pulse.json), printing the
// output events, a raster of the observed neurons, and the activity and
// energy accounting.
//
// Usage:
//
//	nsim -spec net.json
//	nsim -spec net.json -engine parallel -ticks 200
//	nsim -spec net.json -chips 2x2              # serve across a 2x2 multi-chip tile
//	nsim -spec net.json -chips 2x2 -boundary 4  # boundary-aware placement, λ=4
//	nsim -spec net.json -chips 2x2 -save-mapping net.nmap   # export for nshard
//	nsim -spec net.json -chips 2x2 -remote /tmp/s0.sock,/tmp/s1.sock
//
// With -remote the tiled model is served across shard processes (one
// per address, hosted by cmd/nshard over the exported mapping), driven
// in exchange windows of one RPC round-trip each — bit-identical to
// the in-process tile. -xwindow widens the window up to the mapping's
// minimum cross-chip axonal delay (-xwindow 0 = widest legal),
// amortizing the round-trip out of the hot path.
//
// With -chips the network is recompiled for that tile: with λ > 0 the
// placer minimises chip crossings; with -boundary 0 the placement stays
// bit-identical to the untiled compile but the tiling (and its
// predicted inter-chip fraction) is still recorded. Either way the
// report compares the placement's predicted inter-chip fraction
// against the measured one.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/neurogo/neurogo"
	"github.com/neurogo/neurogo/internal/report"
	"github.com/neurogo/neurogo/internal/trace"
)

func main() {
	var (
		specPath = flag.String("spec", "", "path to the JSON network spec (required)")
		engine   = flag.String("engine", "event", "core engine: event or parallel")
		workers  = flag.Int("workers", 2, "goroutines for the parallel engine")
		ticks    = flag.Int("ticks", 0, "override the spec's simulation length")
		raster   = flag.Bool("raster", true, "print an output raster")
		chips    = flag.String("chips", "", "tile the compiled grid across WxH physical chips (e.g. 2x2) and report boundary traffic")
		boundary = flag.Float64("boundary", 1, "boundary weight λ for the tile-aware recompile (with -chips; 0 keeps the tiling-blind placement)")
		saveMap  = flag.String("save-mapping", "", "write the compiled mapping to this file (for nshard) and exit without simulating")
		remoteAt = flag.String("remote", "", "comma-separated shard addresses (see cmd/nshard); serves the tiled model across those processes (requires -chips)")
		xwindow  = flag.Int("xwindow", 1, "exchange window: ticks per boundary exchange (per RPC round-trip with -remote); 0 = widest window the mapping proves exact")
	)
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "nsim: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	boundarySet := false
	flag.Visit(func(f *flag.Flag) { boundarySet = boundarySet || f.Name == "boundary" })
	if *chips == "" && boundarySet {
		fmt.Fprintln(os.Stderr, "nsim: -boundary only applies with -chips")
		os.Exit(2)
	}
	if *remoteAt != "" && *chips == "" {
		fmt.Fprintln(os.Stderr, "nsim: -remote needs -chips (the shards serve a tiled-compiled mapping)")
		os.Exit(2)
	}
	if err := run(*specPath, *engine, *workers, *ticks, *raster, *chips, *boundary, *saveMap, *remoteAt, *xwindow); err != nil {
		fmt.Fprintln(os.Stderr, "nsim:", err)
		os.Exit(1)
	}
}

// parseChips parses a WxH chip-tile spec like "2x2".
func parseChips(s string) (w, h int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) == 2 {
		w, werr := strconv.Atoi(parts[0])
		h, herr := strconv.Atoi(parts[1])
		if werr == nil && herr == nil && w > 0 && h > 0 {
			return w, h, nil
		}
	}
	return 0, 0, fmt.Errorf("invalid -chips %q (want WxH, e.g. 2x2)", s)
}

func run(specPath, engineName string, workers, ticksOverride int, raster bool, chips string, boundary float64, saveMap, remoteAt string, xwindow int) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	spec, err := ParseSpec(data)
	if err != nil {
		return err
	}
	if ticksOverride > 0 {
		spec.Ticks = ticksOverride
	}
	built, err := spec.Build()
	if err != nil {
		return err
	}

	var eng neurogo.Engine
	switch engineName {
	case "event":
		eng = neurogo.EngineEvent
	case "parallel":
		eng = neurogo.EngineParallel
	default:
		return fmt.Errorf("unknown engine %q", engineName)
	}

	st := built.Mapping.Stats
	fmt.Printf("compiled: %d neurons, %d input lines -> %d cores (%d relays) on a %dx%d grid\n",
		built.Net.Neurons(), built.Net.InputLines(),
		st.UsedCores, st.Relays, st.GridWidth, st.GridHeight)

	opts := []neurogo.PipelineOption{
		neurogo.WithEngine(eng),
		neurogo.WithEngineWorkers(workers),
		neurogo.WithDrain(4),
	}
	if xwindow != 1 {
		opts = append(opts, neurogo.WithExchangeWindow(xwindow))
	}
	if chips != "" {
		cw, ch, err := parseChips(chips)
		if err != nil {
			return err
		}
		if st.GridWidth%cw != 0 || st.GridHeight%ch != 0 {
			return fmt.Errorf("%dx%d-core grid does not tile across %dx%d chips", st.GridWidth, st.GridHeight, cw, ch)
		}
		chipX, chipY := st.GridWidth/cw, st.GridHeight/ch
		// Recompile for the serving tile: same spec options, grid pinned
		// to the realized dimensions, tiling recorded, and — with
		// -boundary λ > 0 — the placer minimising chip crossings too.
		opt := built.Opts
		opt.Width, opt.Height = st.GridWidth, st.GridHeight
		opt.ChipCoresX, opt.ChipCoresY = chipX, chipY
		opt.BoundaryWeight = boundary
		tiled, err := neurogo.Compile(built.Net, opt)
		if err != nil {
			return err
		}
		built.Mapping = tiled
		if remoteAt != "" {
			addrs := strings.Split(remoteAt, ",")
			opts = append(opts, neurogo.WithRemoteSystem(addrs...))
			fmt.Printf("serving across %d shard processes: %s\n", len(addrs), remoteAt)
		} else {
			opts = append(opts, neurogo.WithSystem(chipX, chipY))
		}
		fmt.Printf("tiled across %dx%d chips of %dx%d cores each\n", cw, ch, chipX, chipY)
		mode := fmt.Sprintf("boundary-aware (λ=%g)", boundary)
		if boundary == 0 {
			mode = "tiling-blind (λ=0, placement unchanged)"
		}
		fmt.Printf("recompiled %s: predicted inter-chip fraction %.4f, hop cost %.0f (tiling-blind: %.0f)\n",
			mode, tiled.Stats.PredictedInterChipFraction,
			tiled.Stats.PlacementCost, st.PlacementCost)
	}
	if saveMap != "" {
		f, err := os.Create(saveMap)
		if err != nil {
			return err
		}
		if err := neurogo.SaveMapping(f, built.Mapping); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("mapping saved to %s (serve shards with: nshard -mapping %s -shards N -shard I -listen ADDR)\n", saveMap, saveMap)
		return nil
	}
	p, err := neurogo.NewPipeline(built.Mapping, opts...)
	if err != nil {
		return err
	}
	session := p.NewSession()
	stream := session.Stream(context.Background())
	var rec trace.Recorder

	// Stable display order for outputs.
	var outIDs []neurogo.NeuronID
	for id := range built.OutputName {
		outIDs = append(outIDs, id)
	}
	sort.Slice(outIDs, func(i, j int) bool { return outIDs[i] < outIDs[j] })
	rowOf := map[neurogo.NeuronID]int32{}
	for i, id := range outIDs {
		rowOf[id] = int32(i)
	}

	record := func(labels []neurogo.Label) {
		for _, l := range labels {
			fmt.Printf("tick %4d: %s\n", l.Tick, built.OutputName[l.Neuron])
			rec.Record(l.Tick, rowOf[l.Neuron])
		}
	}
	// Spec injections are scheduled by tick, independent of outputs, so
	// the stream can be driven in exchange-window batches: inject the
	// window's spikes up front, then advance the whole window in one
	// step (one RPC round-trip per window with -remote). Bit-identical
	// to per-tick driving at any window width.
	if w := stream.ExchangeWindow(); w > 1 {
		fmt.Printf("exchange window: %d ticks per boundary exchange\n", w)
	}
	for t := 0; t < spec.Ticks; {
		n := stream.ExchangeWindow()
		if rem := spec.Ticks - t; n > rem {
			n = rem
		}
		base := stream.Now()
		for k := 0; k < n; k++ {
			for _, line := range spec.InjectionsAt(base+int64(k), built.Lines) {
				if err := stream.InjectAt(line, base+int64(k)); err != nil {
					return err
				}
			}
		}
		labels, err := stream.TickN(n)
		if err != nil {
			return err
		}
		record(labels)
		t += n
	}
	labels, err := stream.Drain()
	if err != nil {
		return err
	}
	record(labels)

	if raster && len(outIDs) > 0 {
		fmt.Println()
		fmt.Print(rec.Raster(len(outIDs), 0, int64(spec.Ticks)))
		for i, id := range outIDs {
			fmt.Printf("  row %d = %s\n", i, built.OutputName[id])
		}
	}

	u := neurogo.SessionUsageOf(session, true)
	rep := neurogo.DefaultEnergyCoefficients().Evaluate(u)
	tb := report.NewTable("activity and energy", "quantity", "value")
	st = built.Mapping.Stats
	tb.AddRow("fast-path neuron coverage", report.F(st.DeterministicFraction))
	tb.AddRow("ticks", report.I(int64(u.Ticks)))
	tb.AddRow("synaptic events", report.I(int64(u.SynapticEvents)))
	tb.AddRow("spikes", report.I(int64(u.Spikes)))
	tb.AddRow("routed hops", report.I(int64(u.Hops)))
	if bt := session.Traffic(); bt.Chips > 1 {
		tb.AddRow("physical chips", report.I(int64(bt.Chips)))
		tb.AddRow("intra-chip spikes", report.I(int64(bt.IntraChip)))
		tb.AddRow("inter-chip spikes", report.I(int64(bt.InterChip)))
		tb.AddRow("inter-chip fraction (measured)", report.F(bt.InterChipFraction))
		tb.AddRow("inter-chip fraction (predicted)", report.F(bt.PredictedInterChipFraction))
		tb.AddRow("busiest link", report.I(int64(bt.BusiestLink)))
	}
	tb.AddRow("total energy (nJ)", report.F(rep.TotalPJ*1e-3))
	tb.AddRow("mean power (uW)", report.F(rep.MeanPowerW*1e6))
	fmt.Println()
	tb.Render(os.Stdout)
	return nil
}
