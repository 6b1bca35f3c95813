package main

// Shard plumbing for conv_shards: remote.Servers started in-process on
// unix sockets (the same gob/RPC/socket path as cmd/nshard, but the load
// stays in one process so CPU and bytes are observable), a ShardConn
// decorator that times every call, and a listener that counts the bytes
// crossing each server's connections.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/neurogo/neurogo"
	"github.com/neurogo/neurogo/internal/system"
)

// scratchDir is where the benchmark keeps what it writes while running
// (shard sockets); it is inside the checkout and ignored by git.
const scratchDir = ".bench_build"

// shardSet is a running set of in-process shard servers.
type shardSet struct {
	servers []*neurogo.ShardServer
	addrs   []string
	served  sync.WaitGroup
	dir     string
	bytes   atomic.Int64 // wire bytes read+written server-side (counting sets only)
}

// startShards serves mapping m split into n shards on unix sockets in a
// fresh directory under base. With count set, every byte the servers
// read or write is counted.
func startShards(m *neurogo.Mapping, n int, base string, count bool) (*shardSet, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	// Relative socket paths keep under the ~100-byte sun_path limit
	// however deep the checkout is.
	dir, err := os.MkdirTemp(base, "shards")
	if err != nil {
		return nil, err
	}
	s := &shardSet{dir: dir}
	for i := 0; i < n; i++ {
		srv, err := neurogo.NewShardServer(m, n, i)
		if err != nil {
			s.close()
			return nil, err
		}
		addr := filepath.Join(dir, fmt.Sprintf("%d.sock", i))
		ln, err := net.Listen("unix", addr)
		if err != nil {
			s.close()
			return nil, err
		}
		if count {
			ln = &countingListener{Listener: ln, n: &s.bytes}
		}
		s.servers = append(s.servers, srv)
		s.addrs = append(s.addrs, addr)
		s.served.Add(1)
		go func() {
			defer s.served.Done()
			_ = srv.Serve(ln) // returns nil after Close; a dead listener fails the dialling client
		}()
	}
	return s, nil
}

// close stops the servers, waits for their goroutines and removes the
// sockets.
func (s *shardSet) close() {
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	s.served.Wait()
	_ = os.RemoveAll(s.dir)
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// connStats is what a timedConn accumulated since the last take.
type connStats struct {
	tickCalls, resetCalls int
	tickNs, resetNs       int64
	boundaryOut           int
	rtts                  []int64 // one per TickLocalN
}

// timedConn is a pass-through system.ShardConn that times the calls that
// cross the wire (ticks and resets). Injections are only buffered
// client-side, thousands per operation, so they are not timed one by one;
// the replay times them in bulk.
// A Sharded drives each conn from one goroutine at a time, and take is
// called between operations, so no locking is needed.
type timedConn struct {
	system.ShardConn
	st connStats
}

func (c *timedConn) TickLocalN(mode system.EvalMode, workers int, incoming []system.BoundarySpike, n int) (system.WindowResult, error) {
	t0 := nanos()
	res, err := c.ShardConn.TickLocalN(mode, workers, incoming, n)
	d := nanos() - t0
	c.st.tickCalls++
	c.st.tickNs += d
	c.st.rtts = append(c.st.rtts, d)
	c.st.boundaryOut += len(res.Boundary)
	return res, err
}

func (c *timedConn) TickLocal(mode system.EvalMode, workers int, incoming []system.BoundarySpike) (system.TickResult, error) {
	win, err := c.TickLocalN(mode, workers, incoming, 1)
	if err != nil {
		return system.TickResult{}, err
	}
	return system.TickResult{Outputs: win.Outputs[0], Boundary: win.Boundary}, nil
}

func (c *timedConn) Reset() error {
	t0 := nanos()
	err := c.ShardConn.Reset()
	c.st.resetCalls++
	c.st.resetNs += nanos() - t0
	return err
}

// take returns the accumulated stats and starts over. The rtts slice is
// reused; copy what must outlive the next take.
func (c *timedConn) take() connStats {
	st := c.st
	c.st = connStats{rtts: st.rtts[:0]}
	return st
}

// timed wraps every conn.
func timed(conns []system.ShardConn) ([]system.ShardConn, []*timedConn) {
	out := make([]system.ShardConn, len(conns))
	tcs := make([]*timedConn, len(conns))
	for i, c := range conns {
		tcs[i] = &timedConn{ShardConn: c}
		out[i] = tcs[i]
	}
	return out, tcs
}
