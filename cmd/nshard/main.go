// Command nshard hosts one tile shard of a distributed system: it
// loads a tiled-compiled mapping, builds the shard's chip fragment for
// partition coordinates (-shard of -shards), and serves the shard RPC
// protocol (gob over a unix socket or TCP) until killed. A
// system.Sharded client — pipeline.WithRemoteSystem, nsim -remote, or
// remote.DialSharded — drives N such processes in exchange windows (a
// window of ticks per RPC round-trip, lockstep when the window is 1)
// as one logical model, bit-identical to running the mapping in one
// process.
//
// Usage:
//
//	nsim -spec net.json -chips 2x2 -save-mapping net.nmap
//	nshard -mapping net.nmap -shards 2 -shard 0 -listen /tmp/shard0.sock &
//	nshard -mapping net.nmap -shards 2 -shard 1 -listen /tmp/shard1.sock &
//	nsim -spec net.json -chips 2x2 -remote /tmp/shard0.sock,/tmp/shard1.sock
//
// The mapping file must be byte-identical across the shards and the
// client — the connection handshake verifies its SHA-256 — and every
// process derives the same chips-per-shard partition from the
// (-shards, -shard) coordinates alone.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/neurogo/neurogo/internal/compile"
	"github.com/neurogo/neurogo/internal/remote"
	"github.com/neurogo/neurogo/internal/system"
)

func main() {
	var (
		listen  = flag.String("listen", "", "address to serve on: a unix socket path (contains '/') or host:port (required)")
		mapping = flag.String("mapping", "", "path to the tiled-compiled mapping file (see nsim -save-mapping; required)")
		shards  = flag.Int("shards", 1, "total shard count of the partition")
		shard   = flag.Int("shard", 0, "this process's shard index (0-based)")
	)
	flag.Parse()
	if *listen == "" || *mapping == "" {
		fmt.Fprintln(os.Stderr, "nshard: -listen and -mapping are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*listen, *mapping, *shards, *shard); err != nil {
		fmt.Fprintln(os.Stderr, "nshard:", err)
		os.Exit(1)
	}
}

func run(listen, mappingPath string, shards, shard int) error {
	f, err := os.Open(mappingPath)
	if err != nil {
		return err
	}
	m, err := compile.ReadMapping(f)
	f.Close()
	if err != nil {
		return err
	}
	st := m.Stats
	if st.ChipCoresX <= 0 || st.ChipCoresY <= 0 {
		return fmt.Errorf("mapping %s is not tiled-compiled (no chip dimensions recorded); recompile with -chips", mappingPath)
	}
	cfg := system.Config{ChipCoresX: st.ChipCoresX, ChipCoresY: st.ChipCoresY}
	srv, err := remote.NewServer(m, cfg, shards, shard)
	if err != nil {
		return err
	}
	network := "tcp"
	if strings.Contains(listen, "/") {
		network = "unix"
		// A stale socket from a previous run blocks the listen; remove it.
		os.Remove(listen)
	}
	fmt.Printf("nshard: shard %d/%d serving chips %v of a %dx%d-core-chip tile on %s\n",
		shard, shards, srv.Shard().Chips(), cfg.ChipCoresX, cfg.ChipCoresY, listen)
	switch w := srv.Window(); {
	case w == 0:
		fmt.Println("nshard: no cross-chip synapses; any exchange window is exact (drive with nsim -xwindow 0)")
	case w > 1:
		fmt.Printf("nshard: mapping proves exchange windows up to %d ticks exact (drive with nsim -xwindow)\n", w)
	default:
		fmt.Println("nshard: mapping's minimum boundary delay admits lockstep exchange only (window 1)")
	}
	return srv.ListenAndServe(network, listen)
}
