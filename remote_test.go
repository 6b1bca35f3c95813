package neurogo

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"github.com/neurogo/neurogo/internal/remote"
	"github.com/neurogo/neurogo/internal/sim"
)

// The distributed acceptance tests re-exec this test binary as real
// shard server processes: TestMain checks the serve sentinel before
// running any tests, so a child invocation turns into an nshard-style
// server and never touches the test framework.
const (
	shardServeEnv   = "NEUROGO_SHARD_SERVE"
	shardMappingEnv = "NEUROGO_SHARD_MAPPING"
	shardCountEnv   = "NEUROGO_SHARD_COUNT"
	shardIndexEnv   = "NEUROGO_SHARD_INDEX"
	shardListenEnv  = "NEUROGO_SHARD_LISTEN"
)

func TestMain(m *testing.M) {
	if os.Getenv(shardServeEnv) == "1" {
		if err := serveShardFromEnv(); err != nil {
			fmt.Fprintln(os.Stderr, "shard child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serveShardFromEnv is the child-process body: load the exported
// mapping and serve one shard on a unix socket until killed — exactly
// what cmd/nshard does, minus the flag parsing.
func serveShardFromEnv() error {
	f, err := os.Open(os.Getenv(shardMappingEnv))
	if err != nil {
		return err
	}
	mp, err := LoadMapping(f)
	f.Close()
	if err != nil {
		return err
	}
	shards, err := strconv.Atoi(os.Getenv(shardCountEnv))
	if err != nil {
		return err
	}
	shard, err := strconv.Atoi(os.Getenv(shardIndexEnv))
	if err != nil {
		return err
	}
	srv, err := NewShardServer(mp, shards, shard)
	if err != nil {
		return err
	}
	return srv.ListenAndServe("unix", os.Getenv(shardListenEnv))
}

// spawnShardProcs exports m to disk, launches one shard server OS
// process per partition slot (a re-exec of this test binary), waits
// until every socket accepts, and returns the addresses in partition
// order. Children are killed and reaped via tb.Cleanup.
func spawnShardProcs(tb testing.TB, m *Mapping, shards int) []string {
	tb.Helper()
	dir := tb.TempDir()
	mpPath := filepath.Join(dir, "model.nmap")
	f, err := os.Create(mpPath)
	if err != nil {
		tb.Fatal(err)
	}
	if err := SaveMapping(f, m); err != nil {
		f.Close()
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		tb.Fatal(err)
	}
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			shardServeEnv+"=1",
			shardMappingEnv+"="+mpPath,
			shardCountEnv+"="+strconv.Itoa(shards),
			shardIndexEnv+"="+strconv.Itoa(i),
			shardListenEnv+"="+addrs[i],
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, addr := range addrs {
		for {
			conn, err := net.Dial("unix", addr)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				tb.Fatalf("shard at %s never came up: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return addrs
}

// convStackWindow is the held-binary presentation length of the conv
// stack (coincidence-thresholded conv features need the whole patch
// present each tick, as E1 deploys).
const convStackWindow = 8

// convStack is the routed conv/pool/read-out workload compiled for a
// 2x2 chip tile by the boundary-aware annealer (λ=4), plus the images
// presented to it.
type convStack struct {
	conv    *Conv2D
	mapping *Mapping
	images  [][]float64
}

func buildConvStack(t *testing.T) *convStack {
	t.Helper()
	const (
		imgSize = 16
		stride  = 1
		convThr = 2
		poolWin = 2
	)
	gen := NewDigitGenerator(imgSize, 0.02, 2, 42)
	xtr, ytr := gen.Batch(400)
	kernels := OrientedKernels()
	convW := (imgSize-kernels[0].Size)/stride + 1
	feat := make([][]float64, len(xtr))
	for i, img := range xtr {
		f := ConvFeatures(img, imgSize, kernels, stride, convThr)
		feat[i] = FloatPool(f, len(kernels), convW, convW, poolWin)
	}
	m, err := TrainLinear(feat, ytr, NumDigitClasses, TrainOptions{Epochs: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork()
	conv, err := BuildConv2D(net, "conv", imgSize, imgSize, kernels, stride, convThr)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := BuildPool2D(net, conv, "pool", poolWin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFeatureClassifier(net, m.Ternarize(1.3), pool, "out", DefaultClassifierParams()); err != nil {
		t.Fatal(err)
	}
	// Probe compile to learn the grid, then force an even grid that
	// splits into a 2x2 chip tile.
	probe, err := Compile(net, CompileOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := probe.Stats
	w, h := st.GridWidth+st.GridWidth%2, st.GridHeight+st.GridHeight%2
	mp, err := Compile(net, CompileOptions{Placer: PlacerAnneal, AnnealIters: 30000,
		Seed: 1, Width: w, Height: h, ChipCoresX: w / 2, ChipCoresY: h / 2, BoundaryWeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	images, _ := gen.Batch(3)
	return &convStack{conv: conv, mapping: mp, images: images}
}

// driveStack presents the stack's images exactly as the serving
// pipeline's binary encoder does — each on-pixel's twin lines injected
// on every tick of the hold window, then a drain — and returns the full
// output event stream.
func driveStack(t *testing.T, r *Runner, cs *convStack) []Event {
	t.Helper()
	var events []Event
	for _, img := range cs.images {
		var lines []int32
		for p, v := range img {
			if v > 0.5 {
				pos, neg := cs.conv.LinesFor(p)
				lines = append(lines, pos, neg)
			}
		}
		for tick := 0; tick < convStackWindow; tick++ {
			for _, line := range lines {
				if err := r.InjectLine(line); err != nil {
					t.Fatal(err)
				}
			}
			events = append(events, r.Step()...)
		}
		events = append(events, r.Drain(12)...)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestDistributedConvStack is the tentpole acceptance test: the routed
// conv/pool/read-out stack on the 2x2 chip tile, served across two
// real shard server processes over unix sockets, emits byte-identical
// output spikes and identical boundary accounting — totals, link
// matrix and inter-chip fraction — to the in-process System backend.
func TestDistributedConvStack(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	cs := buildConvStack(t)
	mp := cs.mapping
	cfg := SystemConfig{ChipCoresX: mp.Stats.ChipCoresX, ChipCoresY: mp.Stats.ChipCoresY}

	sysR, err := NewSystemRunner(mp, cfg, EngineEvent, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := driveStack(t, sysR, cs)
	if len(want) == 0 {
		t.Fatal("conv stack emitted nothing; test is vacuous")
	}
	sysIntra, sysInter := sysR.BoundarySpikes()
	if sysInter == 0 {
		t.Fatal("conv stack crossed no chip boundary; test is vacuous")
	}

	addrs := spawnShardProcs(t, mp, 2)
	shd, err := remote.DialSharded(mp, cfg, addrs, remote.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	remR := sim.NewTiledRunner(mp, shd, sim.EngineEvent, 1)
	got := driveStack(t, remR, cs)

	if len(got) != len(want) {
		t.Fatalf("distributed stack: %d events, in-process %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, in-process %+v", i, got[i], want[i])
		}
	}
	intra, inter := remR.BoundarySpikes()
	if intra != sysIntra || inter != sysInter {
		t.Fatalf("distributed boundary (%d,%d), in-process (%d,%d)", intra, inter, sysIntra, sysInter)
	}
	gotFrac := float64(inter) / float64(intra+inter)
	wantFrac := float64(sysInter) / float64(sysIntra+sysInter)
	if gotFrac != wantFrac {
		t.Fatalf("inter-chip fraction %v, in-process %v", gotFrac, wantFrac)
	}
	sysLink, link := sysR.BoundaryLinks(), remR.BoundaryLinks()
	for i := range sysLink {
		for j := range sysLink[i] {
			if link[i][j] != sysLink[i][j] {
				t.Fatalf("link[%d][%d] = %d, in-process %d", i, j, link[i][j], sysLink[i][j])
			}
		}
	}
	if gc, wc := remR.Counters(), sysR.Counters(); gc != wc {
		t.Fatalf("distributed counters %+v, in-process %+v", gc, wc)
	}
}
