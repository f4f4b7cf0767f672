package esd

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/crypto"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// Steady-state allocation gates. The write path is the simulator's inner
// loop — every figure campaign and throughput benchmark lives on it — so
// the hot-path kernels (table-driven ECC, in-place counter-mode crypto,
// ring-buffered bank queues, scratch line buffers) are required to keep it
// allocation-free once the working set is warm. These tests fail the build
// the moment a change reintroduces a per-write or per-read heap allocation.

// allocSystem builds a System, warms a bounded working set until the
// scheme's maps and caches reach steady state, and returns closures that
// advance through it one request at a time.
func allocSystem(t *testing.T, scheme string, opts ...SystemOption) (write, read func()) {
	t.Helper()
	sys, err := NewSystem(DefaultConfig(), scheme, opts...)
	if err != nil {
		t.Fatal(err)
	}
	const addrs = 512
	var lines [8]Line
	for i := range lines {
		for j := range lines[i] {
			lines[i][j] = byte(i*31 + j + 1)
		}
	}
	n := 0
	write = func() {
		sys.Write(uint64(n%addrs), lines[n%len(lines)])
		n++
	}
	m := 0
	read = func() {
		sys.Read(uint64(m % addrs))
		m++
	}
	// Warm-up: touch every address several times so the AMT, counter store
	// and device maps stop growing before the measurement window.
	for i := 0; i < addrs*8; i++ {
		write()
	}
	for i := 0; i < addrs; i++ {
		read()
	}
	return write, read
}

func TestSteadyStateWriteAllocs(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			write, _ := allocSystem(t, scheme)
			if avg := testing.AllocsPerRun(2000, write); avg != 0 {
				t.Errorf("%s steady-state write: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

func TestSteadyStateReadAllocs(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			_, read := allocSystem(t, scheme)
			if avg := testing.AllocsPerRun(2000, read); avg != 0 {
				t.Errorf("%s steady-state read: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

// TestSteadyStateBatchWriteAllocs pins the batched write path: once warm,
// System.WriteBatch must stay off the heap for every scheme — both the
// schemes with native batch kernels (esd, sha1, baseline) and the ones
// the memctrl fallback drives through their scalar path (dewrite). The
// per-call scratch is reused inside System, so a steady stream of 16-op
// batches is required to allocate nothing at all.
func TestSteadyStateBatchWriteAllocs(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			sys, err := NewSystem(DefaultConfig(), scheme)
			if err != nil {
				t.Fatal(err)
			}
			const addrs = 512
			ops := make([]WriteBatchOp, 16)
			n := 0
			batchWrite := func() {
				for j := range ops {
					ops[j].Addr = uint64(n % addrs)
					ops[j].Line.SetWord(0, uint64(n%8)*0x9E3779B9+1)
					n++
				}
				sys.WriteBatch(ops)
			}
			// Warm-up: cycle the working set until the AMT, counter store
			// and batch scratch stop growing.
			for i := 0; i < addrs; i++ {
				batchWrite()
			}
			if avg := testing.AllocsPerRun(500, batchWrite); avg != 0 {
				t.Errorf("%s steady-state batched write: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSteadyStateShardReadBatchAllocs pins the engine's batched read path:
// the plan, the per-shard sub-batches and the response channels all come
// from pools, so once warm a steady stream of 64-op ReadBatch calls over
// four shards must allocate nothing.
func TestSteadyStateShardReadBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random; this gate runs without -race")
	}
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			sys, err := NewShardedSystem(DefaultConfig(), scheme, WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			const addrs = 512
			for a := uint64(0); a < addrs; a++ {
				if _, err := sys.Write(a, Line{byte(a), byte(a >> 8), 1}); err != nil {
					t.Fatal(err)
				}
			}
			ops := make([]shard.ReadBatchOp, 64)
			n := 0
			batchRead := func() {
				for j := range ops {
					ops[j].Addr = uint64(n % addrs)
					n++
				}
				if err := sys.eng.ReadBatch(ops); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < addrs; i++ {
				batchRead()
			}
			if avg := testing.AllocsPerRun(500, batchRead); avg != 0 {
				t.Errorf("%s steady-state engine ReadBatch: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

// TestSteadyStateShardScalarAllocs pins the engine's scalar calls as a
// node makes them, with metrics and stage tracing on: a call that finds
// its shard idle runs inline through the shard's scratch request, so once
// warm a steady stream of Write, Read and the traced Try variants the
// server calls must allocate nothing.
func TestSteadyStateShardScalarAllocs(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			sys, err := NewShardedSystem(DefaultConfig(), scheme, WithShards(4), WithShardMetrics(), WithStageTracing())
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			eng := sys.eng
			ctx := context.Background()
			const addrs = 512
			var lines [8]Line
			for i := range lines {
				lines[i][0], lines[i][1] = byte(i), 1
			}
			n := 0
			check := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
			calls := []struct {
				name string
				call func()
			}{
				{"Write", func() {
					_, err := eng.Write(uint64(n%addrs), lines[n%len(lines)])
					check(err)
				}},
				{"Read", func() {
					_, err := eng.Read(uint64(n % addrs))
					check(err)
				}},
				{"TryWriteTraced", func() {
					_, err := eng.TryWriteTraced(ctx, uint64(n%addrs), lines[n%len(lines)], eng.NewTrace())
					check(err)
				}},
				{"TryReadTraced", func() {
					_, err := eng.TryReadTraced(ctx, uint64(n%addrs), eng.NewTrace())
					check(err)
				}},
			}
			for _, c := range calls {
				for i := 0; i < addrs*4; i++ {
					c.call()
				}
			}
			for _, c := range calls {
				if avg := testing.AllocsPerRun(2000, c.call); avg != 0 {
					t.Errorf("%s steady-state engine %s: %v allocs/op, want 0", scheme, c.name, avg)
				}
			}
		})
	}
}

// TestSteadyStateWriteAllocsWithMetrics re-runs the write gate with the
// full telemetry sink attached: the metric counters, the dedup
// effectiveness gauges and the always-on device-health accounting must
// all stay off the heap on the hot path. (Health accounting itself has no
// off switch, so the plain gates above already cover it; this variant
// proves the observable stack adds no allocation either.)
func TestSteadyStateWriteAllocsWithMetrics(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			write, _ := allocSystem(t, scheme, WithMetrics())
			if avg := testing.AllocsPerRun(2000, write); avg != 0 {
				t.Errorf("%s steady-state write with metrics: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

// TestHealthSummaryAllocs pins the scrape-side path the telemetry gauges
// use: Device.HealthSummary must not allocate.
func TestHealthSummaryAllocs(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(), SchemeESD)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		sys.Write(uint64(i), Line{byte(i)})
	}
	if avg := testing.AllocsPerRun(1000, func() { _ = sys.env.Device.HealthSummary() }); avg != 0 {
		t.Errorf("HealthSummary: %v allocs/op, want 0", avg)
	}
}

// TestKernelAllocs pins the two per-line kernels themselves: ECC
// fingerprinting and in-place counter-mode encrypt/decrypt must never
// allocate, independent of any scheme plumbing around them.
func TestKernelAllocs(t *testing.T) {
	var line ecc.Line
	for i := range line {
		line[i] = byte(i * 7)
	}
	var sink ecc.Fingerprint
	if avg := testing.AllocsPerRun(1000, func() { sink = ecc.EncodeLine(&line) }); avg != 0 {
		t.Errorf("ecc.EncodeLine: %v allocs/op, want 0", avg)
	}
	_ = sink

	eng := crypto.NewEngineFromSeed(42)
	eng.EncryptInPlace(7, &line) // warm the counter map
	if avg := testing.AllocsPerRun(1000, func() {
		eng.EncryptInPlace(7, &line)
		eng.DecryptInPlace(7, &line)
	}); avg != 0 {
		t.Errorf("crypto in-place encrypt/decrypt: %v allocs/op, want 0", avg)
	}
}

// Served-path gates. A raw-frame client builds each request in a buffer
// it owns and reads the reply into another, so every allocation these
// gates count is the serving side's (TCPClient.RecvRead, by contrast,
// copies each read's line into a fresh slice). testing.AllocsPerRun
// counts the whole process, serving goroutines included, and each round
// trip is answered before the next is sent. The nodes run like the
// benchmark's: four shards, metrics and stage tracing on.

// Reply sizes of the frames the gates send (internal/server/proto.go).
const (
	rawWriteReply = 1 + 1 + 8 + 8 + 8
	rawReadReply  = 1 + 1 + ecc.LineSize + 8 + 8
	rawBatchHead  = 1 + 2 + 8
	rawWriteRec   = 1 + 1 + 8 + 8
	rawReadRec    = 1 + 1 + ecc.LineSize + 8
	rawAddrs      = 512
	rawBatchOps   = 64
)

// rawFrames is a binary-protocol client that allocates nothing per frame.
type rawFrames struct {
	t    *testing.T
	conn net.Conn
	req  []byte
	resp []byte
	n    uint64 // ops sent, which picks the next address and line
}

func dialFrames(t *testing.T, addr string) *rawFrames {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	size := rawBatchHead + rawBatchOps*rawReadRec
	return &rawFrames{t: t, conn: conn, req: make([]byte, 0, size), resp: make([]byte, size)}
}

// head starts a request frame: the op and trace 0, which the server
// replaces with one it mints.
func (c *rawFrames) head(op byte) {
	c.req = append(c.req[:0], op)
	c.req = binary.LittleEndian.AppendUint64(c.req, 0)
}

// op appends the next address, and the next line for a write.
func (c *rawFrames) op(write bool) {
	c.req = binary.LittleEndian.AppendUint64(c.req, c.n%rawAddrs)
	if write {
		var line Line
		line[0], line[1] = byte(c.n%8), 1
		c.req = append(c.req, line[:]...)
	}
	c.n++
}

// exchange sends the frame in req and reads an n-byte reply, whose status
// byte must be OK, and so must those of its recs batch records of rec
// bytes each.
func (c *rawFrames) exchange(n, recs, rec int) {
	if _, err := c.conn.Write(c.req); err != nil {
		c.t.Fatal(err)
	}
	b := c.resp[:n]
	if _, err := io.ReadFull(c.conn, b); err != nil {
		c.t.Fatal(err)
	}
	if b[0] != server.StatusOK {
		c.t.Fatalf("frame %q: status %d", c.req[0], b[0])
	}
	for i := 0; i < recs; i++ {
		if st := b[rawBatchHead+i*rec]; st != server.StatusOK {
			c.t.Fatalf("frame %q op %d: status %d", c.req[0], i, st)
		}
	}
}

func (c *rawFrames) write() {
	c.head(server.OpWrite)
	c.op(true)
	c.exchange(rawWriteReply, 0, 0)
}

func (c *rawFrames) read() {
	c.head(server.OpRead)
	c.op(false)
	c.exchange(rawReadReply, 0, 0)
}

func (c *rawFrames) batch(op byte) {
	c.head(op)
	c.req = binary.LittleEndian.AppendUint16(c.req, rawBatchOps)
	for i := 0; i < rawBatchOps; i++ {
		c.op(op == server.OpWriteBatch)
	}
	rec := rawReadRec
	if op == server.OpWriteBatch {
		rec = rawWriteRec
	}
	c.exchange(rawBatchHead+rawBatchOps*rec, rawBatchOps, rec)
}

// servedNode boots a node serving TCP on loopback.
func servedNode(t *testing.T) *server.Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PCM.CapacityBytes = 1 << 26
	eng, err := shard.New(cfg, SchemeESD, shard.Options{Shards: 4, Metrics: true, Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, server.Config{Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"})
	if err != nil {
		_ = eng.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = eng.Close()
	})
	return srv
}

// gateFrames warms each path over the working set, then requires it to
// allocate nothing per frame.
func gateFrames(t *testing.T, paths map[string]func()) {
	t.Helper()
	for name, f := range paths {
		for i := 0; i < 4*rawAddrs; i++ {
			f()
		}
		if avg := testing.AllocsPerRun(500, f); avg != 0 {
			t.Errorf("%s: %v allocs/frame, want 0", name, avg)
		}
	}
}

// TestServedFrameAllocs pins a node's four frame paths over loopback:
// the request's deadline rides in its trace context, and a request that
// finds its shard idle runs inline, so none arms a timer or allocates.
func TestServedFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random; this gate runs without -race")
	}
	c := dialFrames(t, servedNode(t).TCPAddr())
	gateFrames(t, map[string]func(){
		"write":       c.write,
		"read":        c.read,
		"write-batch": func() { c.batch(server.OpWriteBatch) },
		"read-batch":  func() { c.batch(server.OpReadBatch) },
	})
}

// TestRoutedFrameAllocs pins a scalar write and read routed through a
// router's front to one node (R=1) and to two (R=2): the router's waves
// keep their frames and connections on the stack, and its hop to the
// node decodes a read's line in place.
func TestRoutedFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random; this gate runs without -race")
	}
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", rf), func(t *testing.T) {
			var nodes []cluster.Node
			for i := 0; i < rf; i++ {
				srv := servedNode(t)
				nodes = append(nodes, cluster.Node{Name: fmt.Sprintf("n%d", i), TCPAddr: srv.TCPAddr(), HTTPAddr: srv.Addr()})
			}
			r, err := cluster.NewRouter(cluster.Config{Nodes: nodes, Replication: rf, ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			front, err := cluster.NewServer(r, cluster.ServeConfig{TCPAddr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = front.Shutdown(ctx)
			})
			c := dialFrames(t, front.TCPAddr())
			gateFrames(t, map[string]func(){"write": c.write, "read": c.read})
		})
	}
}
