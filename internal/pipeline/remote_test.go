package pipeline

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"github.com/neurogo/neurogo/internal/compile"
	"github.com/neurogo/neurogo/internal/corelet"
	"github.com/neurogo/neurogo/internal/dataset"
	"github.com/neurogo/neurogo/internal/model"
	"github.com/neurogo/neurogo/internal/remote"
	"github.com/neurogo/neurogo/internal/system"
	"github.com/neurogo/neurogo/internal/train"
)

// remoteRig is the digit rig compiled for a 1x1-core chip tile, so the
// same mapping serves WithSystem and WithRemoteSystem pipelines.
func remoteRig(t *testing.T) *rig {
	t.Helper()
	gen := dataset.NewDigits(8, 0.02, 0, 3)
	xtr, ytr := gen.Batch(300)
	m, err := train.TrainLinear(xtr, ytr, dataset.NumClasses, train.Options{Epochs: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nw := model.New()
	cls := corelet.BuildClassifier(nw, m.Ternarize(1.3), "d", corelet.ClassifierParams{Threshold: 4, Decay: 1})
	// A 2x2 grid of single-core chips: the flat classifier occupies one
	// chip, the rest are empty — the smallest mapping a 2-shard
	// partition can serve.
	mp, err := compile.Compile(nw, compile.Options{Width: 2, Height: 2, ChipCoresX: 1, ChipCoresY: 1})
	if err != nil {
		t.Fatal(err)
	}
	x, y := gen.Batch(16)
	return &rig{cls: cls, mapping: mp, x: x, y: y}
}

// startShardServers hosts the rig's shards in-process on unix sockets
// and returns their addresses (partition order).
func startShardServers(t *testing.T, mp *compile.Mapping, shards int) ([]*remote.Server, []string) {
	t.Helper()
	cfg := system.Config{ChipCoresX: mp.Stats.ChipCoresX, ChipCoresY: mp.Stats.ChipCoresY}
	srvs := make([]*remote.Server, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv, err := remote.NewServer(mp, cfg, shards, i)
		if err != nil {
			t.Fatal(err)
		}
		addr := filepath.Join(t.TempDir(), fmt.Sprintf("s%d.sock", i))
		ln, err := net.Listen("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		srvs[i], addrs[i] = srv, addr
	}
	return srvs, addrs
}

// TestRemoteClassifyBitIdentical is the serving-layer acceptance: a
// pipeline over remote shard processes classifies exactly as the
// in-process system pipeline, with identical boundary-traffic
// accounting.
func TestRemoteClassifyBitIdentical(t *testing.T) {
	rg := remoteRig(t)
	ctx := context.Background()

	sysP := rg.pipeline(t, WithSystem(1, 1))
	want, err := sysP.ClassifyBatch(ctx, rg.x)
	if err != nil {
		t.Fatal(err)
	}
	wantTraffic := sysP.Traffic()

	_, addrs := startShardServers(t, rg.mapping, 2)
	remP := rg.pipeline(t, WithRemoteSystem(addrs...))
	defer remP.Close()
	got, err := remP.ClassifyBatch(ctx, rg.x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("image %d: remote %d, system %d", i, got[i], want[i])
		}
	}
	gotTraffic := remP.Traffic()
	if gotTraffic.IntraChip != wantTraffic.IntraChip ||
		gotTraffic.InterChip != wantTraffic.InterChip ||
		gotTraffic.InterChipFraction != wantTraffic.InterChipFraction ||
		gotTraffic.BusiestLink != wantTraffic.BusiestLink {
		t.Fatalf("remote traffic %+v, system %+v", gotTraffic, wantTraffic)
	}

	// A session Classify on the shared lane reproduces the batch.
	s := remP.NewSession()
	for i, img := range rg.x[:4] {
		c, err := s.Classify(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		if c != want[i] {
			t.Fatalf("image %d: remote session %d, system %d", i, c, want[i])
		}
	}
}

// TestRemoteStreamTrafficMatchesSystem drives the routed relay chain
// (real core-to-core edges, so crossings are non-zero) through the
// stream API on both backends: the remote label stream and every
// boundary-traffic figure must equal the in-process system's exactly.
func TestRemoteStreamTrafficMatchesSystem(t *testing.T) {
	mp, err := compile.Compile(chainNet(), compile.Options{Width: 4, Height: 2,
		ChipCoresX: 2, ChipCoresY: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantTraffic, wantLabels := chainTraffic(t, mp)
	if wantTraffic.InterChip == 0 {
		t.Fatal("chain rig crossed no boundary; test is vacuous")
	}

	_, addrs := startShardServers(t, mp, 2)
	p, err := New(mp, WithRemoteSystem(addrs...), WithDrain(4))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st := p.NewSession().Stream(context.Background())
	var labels []Label
	for tick := 0; tick < 6; tick++ {
		for line := int32(0); line < 4; line++ {
			if err := st.Inject(line); err != nil {
				t.Fatal(err)
			}
		}
		ls, err := st.Tick()
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, ls...)
	}
	ls, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	labels = append(labels, ls...)

	if len(labels) != len(wantLabels) {
		t.Fatalf("remote stream: %d labels, system %d", len(labels), len(wantLabels))
	}
	for i := range wantLabels {
		if labels[i] != wantLabels[i] {
			t.Fatalf("label %d: remote %+v, system %+v", i, labels[i], wantLabels[i])
		}
	}
	got := p.Traffic()
	if got.IntraChip != wantTraffic.IntraChip || got.InterChip != wantTraffic.InterChip ||
		got.InterChipFraction != wantTraffic.InterChipFraction ||
		got.BusiestLink != wantTraffic.BusiestLink || got.Chips != wantTraffic.Chips {
		t.Fatalf("remote traffic %+v, system %+v", got, wantTraffic)
	}
}

// TestRemoteSingleLane pins the one-model-state invariant: every
// session of a remote pipeline shares the single shard lane, workers
// are clamped to one, and concurrent use still serializes to the
// sequential results.
func TestRemoteSingleLane(t *testing.T) {
	rg := remoteRig(t)
	_, addrs := startShardServers(t, rg.mapping, 2)
	p := rg.pipeline(t, WithRemoteSystem(addrs...), WithWorkers(8))
	defer p.Close()
	if p.cfg.workers != 1 {
		t.Fatalf("remote pipeline kept %d workers", p.cfg.workers)
	}
	s1, s2 := p.NewSession(), p.NewSession()
	if s1 != s2 {
		t.Fatal("remote pipeline handed out two lanes")
	}
	ctx := context.Background()
	want, err := p.ClassifyBatch(ctx, rg.x[:6])
	if err != nil {
		t.Fatal(err)
	}
	// The async front-end must also collapse to the single lane and
	// still produce the sequential results.
	ap := mustAsync(t, p, WithAsyncWorkers(4))
	chans := make([]<-chan Result, 6)
	for i, img := range rg.x[:6] {
		chans[i] = ap.Submit(ctx, img)
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Class != want[i] {
			t.Fatalf("async image %d: %d, sequential %d", i, r.Class, want[i])
		}
	}
	ap.Close()
}

// TestRemoteKillMidPresentation is the disconnect satellite at the
// serving layer: killing a shard process mid-presentation surfaces
// ErrShardDown from Classify within bounded time — never a hang — and
// the pipeline stays down.
func TestRemoteKillMidPresentation(t *testing.T) {
	rg := remoteRig(t)
	srvs, addrs := startShardServers(t, rg.mapping, 2)
	p := rg.pipeline(t, WithRemoteSystem(addrs...), WithRemoteTimeout(5*time.Second))
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Classify(ctx, rg.x[0]); err != nil {
		t.Fatal(err)
	}

	// Classify in a loop and sever shard 1 while presentations run, so
	// the kill lands mid-presentation with high probability; either way
	// the error must be typed and prompt.
	errc := make(chan error, 1)
	go func() {
		for {
			if _, err := p.Classify(ctx, rg.x[0]); err != nil {
				errc <- err
				return
			}
		}
	}()
	srvs[1].Close()
	select {
	case err := <-errc:
		if !errors.Is(err, system.ErrShardDown) {
			t.Fatalf("Classify after kill = %v, want ErrShardDown match", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Classify hung after shard kill")
	}
	// Sticky: the next presentation fails immediately with the same
	// typed error.
	if _, err := p.Classify(ctx, rg.x[0]); !errors.Is(err, system.ErrShardDown) {
		t.Fatalf("second Classify = %v", err)
	}
}

// TestRemoteClassifyDeadline pins the context path end to end: a
// Classify deadline bounds the RPC waits of a stalled shard.
func TestRemoteClassifyDeadline(t *testing.T) {
	rg := remoteRig(t)
	_, addrs := startShardServers(t, rg.mapping, 1)
	p := rg.pipeline(t, WithRemoteSystem(addrs...))
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := p.Classify(ctx, rg.x[0]); err == nil {
		t.Fatal("cancelled Classify succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled Classify took %v", elapsed)
	}
}

// TestRemoteCancelledClassifyKeepsShardsUp pins that a presentation
// cancelled before its first window never touches the wire: it fails
// with its own error, and the next Classify on a live context still
// matches a single-chip pipeline.
func TestRemoteCancelledClassifyKeepsShardsUp(t *testing.T) {
	rg := remoteRig(t)
	want, err := rg.pipeline(t).Classify(context.Background(), rg.x[0])
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startShardServers(t, rg.mapping, 2)
	p := rg.pipeline(t, WithRemoteSystem(addrs...))
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Classify(ctx, rg.x[0]); err == nil {
		t.Fatal("cancelled Classify succeeded")
	}
	got, err := p.Classify(context.Background(), rg.x[0])
	if err != nil {
		t.Fatalf("Classify after a cancelled one: %v", err)
	}
	if got != want {
		t.Fatalf("remote class %d, single-chip %d", got, want)
	}
}

func TestWithRemoteSystemValidation(t *testing.T) {
	rg := remoteRig(t)
	if _, err := New(rg.mapping, WithRemoteSystem("/tmp/a.sock"), WithSystem(1, 1)); err == nil {
		t.Error("WithRemoteSystem + WithSystem accepted")
	}
	untiled := buildRig(t)
	if _, err := New(untiled.mapping, WithRemoteSystem("/tmp/a.sock")); err == nil {
		t.Error("untiled mapping accepted")
	}
	// No server behind the address: New must fail eagerly, not at the
	// first Classify.
	if _, err := New(rg.mapping, WithRemoteSystem(filepath.Join(t.TempDir(), "none.sock"))); err == nil {
		t.Error("unreachable shard address accepted")
	}
}
