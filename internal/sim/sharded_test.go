package sim

import (
	"testing"

	"github.com/neurogo/neurogo/internal/chip"
	"github.com/neurogo/neurogo/internal/compile"
	"github.com/neurogo/neurogo/internal/system"
)

// TestShardedRunnerBitIdentical is the partition-equivalence fuzz at
// the runner layer: across every engine, every shard count and several
// randomized schedules, a sharded runner emits exactly the event
// stream of a single-chip runner, its boundary accounting folds to
// exactly the unpartitioned System's values, and its chip counters sum
// to the single chip's.
func TestShardedRunnerBitIdentical(t *testing.T) {
	for _, seed := range []uint64{5, 6} {
		mp, err := compile.Compile(goldenNet(seed), compile.Options{Seed: seed, Width: 6, Height: 6})
		if err != nil {
			t.Fatal(err)
		}
		cfg := system.Config{ChipCoresX: 1, ChipCoresY: 1} // 36 chips
		for _, eng := range []Engine{EngineEvent, EngineParallel} {
			want := schedule(t, NewRunner(mp, eng, 2), 40, seed*13)
			if len(want) == 0 {
				t.Fatalf("seed %d: no events; test is vacuous", seed)
			}
			sysR, err := NewSystemRunner(mp, cfg, eng, 2)
			if err != nil {
				t.Fatal(err)
			}
			schedule(t, sysR, 40, seed*13)
			sysIntra, sysInter := sysR.BoundarySpikes()
			sysLink := sysR.BoundaryLinks()

			for _, shards := range []int{1, 2, 4} {
				sr, err := NewShardedRunner(mp, cfg, shards, eng, 2)
				if err != nil {
					t.Fatal(err)
				}
				got := schedule(t, sr, 40, seed*13)
				if len(got) != len(want) {
					t.Fatalf("seed %d %v shards=%d: %d events, chip runner %d",
						seed, eng, shards, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d %v shards=%d: event %d = %+v, chip %+v",
							seed, eng, shards, i, got[i], want[i])
					}
				}
				if sr.System() != nil {
					t.Fatal("System() non-nil on a sharded runner")
				}
				if sr.Tiled() == nil {
					t.Fatal("Tiled() nil on a sharded runner")
				}
				if err := sr.Err(); err != nil {
					t.Fatalf("healthy sharded runner reports %v", err)
				}
				intra, inter := sr.BoundarySpikes()
				if intra != sysIntra || inter != sysInter {
					t.Fatalf("seed %d %v shards=%d: boundary (%d,%d), system (%d,%d)",
						seed, eng, shards, intra, inter, sysIntra, sysInter)
				}
				if inter == 0 {
					t.Fatal("1x1-core chips crossed no boundary; rig too small")
				}
				if routed := sr.Counters().RoutedSpikes; intra+inter != routed {
					t.Fatalf("seed %d %v shards=%d: boundary classification %d+%d does not cover %d routed",
						seed, eng, shards, intra, inter, routed)
				}
				link := sr.BoundaryLinks()
				for i := range sysLink {
					for j := range sysLink[i] {
						if link[i][j] != sysLink[i][j] {
							t.Fatalf("seed %d %v shards=%d: link[%d][%d] = %d, system %d",
								seed, eng, shards, i, j, link[i][j], sysLink[i][j])
						}
					}
				}
				if got, want := sr.Counters(), sysR.Counters(); got != want {
					t.Fatalf("seed %d %v shards=%d: counters %+v, system %+v",
						seed, eng, shards, got, want)
				}
			}
		}
	}
}

// TestShardedRunnerResetFolds pins the cumulative accounting across
// Reset for the partitioned backend, as
// TestSystemRunnerBoundarySpikesAccumulate does for the in-process
// tile: every shard's tally spans Resets, so identical presentations
// double every total and every link cell.
func TestShardedRunnerResetFolds(t *testing.T) {
	mp, err := compile.Compile(goldenNet(5), compile.Options{Width: 6, Height: 6})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewShardedRunner(mp, system.Config{ChipCoresX: 1, ChipCoresY: 1}, 4, EngineEvent, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := schedule(t, r, 20, 23)
	intra1, inter1 := r.BoundarySpikes()
	if inter1 == 0 {
		t.Fatal("no crossings recorded")
	}
	link1 := r.BoundaryLinks()
	r.Reset()
	if r.Now() != 0 {
		t.Fatalf("Now after Reset = %d", r.Now())
	}
	if intra, inter := r.BoundarySpikes(); intra != intra1 || inter != inter1 {
		t.Fatalf("BoundarySpikes lost the pre-Reset record: (%d,%d) -> (%d,%d)", intra1, inter1, intra, inter)
	}
	got := schedule(t, r, 20, 23)
	if len(got) != len(want) {
		t.Fatalf("reset sharded runner: %d events, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, fresh %+v", i, got[i], want[i])
		}
	}
	if intra, inter := r.BoundarySpikes(); intra != 2*intra1 || inter != 2*inter1 {
		t.Fatalf("identical presentations: (%d,%d), want doubled (%d,%d)", intra, inter, 2*intra1, 2*inter1)
	}
	link2 := r.BoundaryLinks()
	for i := range link1 {
		for j := range link1[i] {
			if link2[i][j] != 2*link1[i][j] {
				t.Fatalf("link[%d][%d] = %d, want %d", i, j, link2[i][j], 2*link1[i][j])
			}
		}
	}
}

// countingConn is an in-process shard that counts the traffic reads
// the driving Sharded forwards to it.
type countingConn struct {
	*system.Shard
	totals, links int
}

func (c *countingConn) BoundaryTotals() (intra, inter uint64) {
	c.totals++
	return c.Shard.BoundaryTotals()
}

func (c *countingConn) AddLinkTrafficInto(dst [][]uint64) {
	c.links++
	c.Shard.AddLinkTrafficInto(dst)
}

// TestRunnerResetReadsNoTraffic pins where traffic accumulates: at its
// source shard, for the shard's whole life. Runner.Reset therefore
// reads no shard's tally, and the totals still span the Reset.
func TestRunnerResetReadsNoTraffic(t *testing.T) {
	mp, err := compile.Compile(goldenNet(5), compile.Options{Width: 6, Height: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.Config{ChipCoresX: 1, ChipCoresY: 1}
	parts := system.PartitionChips(36, 2)
	conns := make([]system.ShardConn, len(parts))
	counted := make([]*countingConn, len(parts))
	for i, part := range parts {
		sh, err := system.NewShard(mp.Chip, cfg, part, chip.Options{})
		if err != nil {
			t.Fatal(err)
		}
		counted[i] = &countingConn{Shard: sh}
		conns[i] = counted[i]
	}
	shd, err := system.NewShardedFrom(mp.Chip, cfg, conns, parts)
	if err != nil {
		t.Fatal(err)
	}
	r := NewTiledRunner(mp, shd, EngineEvent, 1)
	schedule(t, r, 20, 23)
	intra, inter := r.BoundarySpikes()
	if inter == 0 {
		t.Fatal("no crossings recorded")
	}
	for _, c := range counted {
		c.totals, c.links = 0, 0
	}
	for i := 0; i < 3; i++ {
		r.Reset()
	}
	for i, c := range counted {
		if c.totals != 0 || c.links != 0 {
			t.Fatalf("shard %d: Runner.Reset made %d BoundaryTotals and %d AddLinkTrafficInto calls, want none",
				i, c.totals, c.links)
		}
	}
	if gi, ge := r.BoundarySpikes(); gi != intra || ge != inter {
		t.Fatalf("BoundarySpikes across Reset (%d,%d), before (%d,%d)", gi, ge, intra, inter)
	}
}
