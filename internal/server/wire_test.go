package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// The wire tests drive both Handler implementations — a node over its
// engine and a cluster router's front — with the same frames, so the
// shared codec's format is pinned for every server a client can reach.

// wireNode boots a 1-shard node serving TCP.
func wireNode(t testing.TB) *server.Server {
	t.Helper()
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 22
	eng, err := shard.New(cfg, "esd", shard.Options{Shards: 1})
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

// wireFront boots a router (R=1) over one fresh node and its TCP front,
// and returns the front's data-path address.
func wireFront(t testing.TB) string {
	t.Helper()
	node := wireNode(t)
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:         []cluster.Node{{Name: "n0", TCPAddr: node.TCPAddr(), HTTPAddr: node.Addr()}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := cluster.NewServer(r, cluster.ServeConfig{TCPAddr: "127.0.0.1:0"})
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
		r.Close()
	})
	return front.TCPAddr()
}

// exchange sends stream on a fresh connection, half-closes it, and returns
// everything the server answers until it closes its side.
func exchange(t testing.TB, addr string, stream []byte) []byte {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	go func() {
		_, _ = conn.Write(stream)
		_ = conn.(*net.TCPConn).CloseWrite()
	}()
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("server never finished the stream: %v", err)
	}
	return out
}

func u16(v uint16) []byte        { return binary.LittleEndian.AppendUint16(nil, v) }
func u64(v uint64) []byte        { return binary.LittleEndian.AppendUint64(nil, v) }
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func testLine(words ...uint64) ecc.Line {
	var l ecc.Line
	for i, w := range words {
		l.SetWord(i, w)
	}
	return l
}

// piece is one span of an expected response: exact bytes, n bytes whose
// value is engine-dependent (physical address, simulated latency), a
// trace ID the receiver minted (nonzero), or a stats body (len:4 json).
type piece struct {
	exact  []byte
	any    int
	minted bool
	stats  bool
}

func exact(parts ...[]byte) piece { return piece{exact: cat(parts...)} }

var (
	anyOutcome = piece{any: 16} // phys:8 latNs:8
	anyLat     = piece{any: 8}
	minted     = piece{minted: true}
)

// check reads one response off br and matches it against want.
func check(br *bufio.Reader, want []piece) error {
	for _, p := range want {
		switch {
		case p.stats:
			var n [4]byte
			if _, err := io.ReadFull(br, n[:]); err != nil {
				return err
			}
			body := make([]byte, binary.LittleEndian.Uint32(n[:]))
			if _, err := io.ReadFull(br, body); err != nil {
				return err
			}
			var st server.StatsResponse
			if err := json.Unmarshal(body, &st); err != nil || st.Writes == 0 {
				return fmt.Errorf("stats body %q: %v", body, err)
			}
		case p.minted:
			var b [8]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return err
			}
			if binary.LittleEndian.Uint64(b[:]) == 0 {
				return fmt.Errorf("trace-0 request echoed trace 0, want a minted ID")
			}
		case p.any > 0:
			if _, err := br.Discard(p.any); err != nil {
				return err
			}
		default:
			got := make([]byte, len(p.exact))
			if _, err := io.ReadFull(br, got); err != nil {
				return err
			}
			if !bytes.Equal(got, p.exact) {
				return fmt.Errorf("got % x, want % x", got, p.exact)
			}
		}
	}
	return nil
}

// TestWireGoldenFrames pins every request and response frame, with trace
// 0 and with a nonzero trace, against both handlers. The cases run in
// order on one connection, so later reads see earlier writes.
func TestWireGoldenFrames(t *testing.T) {
	const trace uint64 = 0x0123456789ABCDEF
	l1, l2 := testLine(1, 2), testLine(3, 4)
	var zero ecc.Line
	ok := []byte{server.StatusOK}
	cases := []struct {
		name string
		req  []byte
		resp []piece
	}{
		{"write trace 0", cat([]byte{'W'}, u64(0), u64(7), l1[:]),
			[]piece{exact(ok, []byte{0}), anyOutcome, minted}},
		{"write traced dedup", cat([]byte{'W'}, u64(trace), u64(8), l1[:]),
			[]piece{exact(ok, []byte{1}), anyOutcome, exact(u64(trace))}},
		{"read trace 0", cat([]byte{'R'}, u64(0), u64(7)),
			[]piece{exact(ok, []byte{1}, l1[:]), anyLat, minted}},
		{"read traced miss", cat([]byte{'R'}, u64(trace), u64(99)),
			[]piece{exact(ok, []byte{0}, zero[:]), anyLat, exact(u64(trace))}},
		{"write batch trace 0", cat([]byte{'B'}, u64(0), u16(2), u64(10), l1[:], u64(11), l2[:]),
			[]piece{exact(ok, u16(2)), minted,
				exact(ok, []byte{1}), anyOutcome,
				exact(ok, []byte{0}), anyOutcome}},
		{"write batch traced", cat([]byte{'B'}, u64(trace), u16(1), u64(12), l2[:]),
			[]piece{exact(ok, u16(1), u64(trace)), exact(ok, []byte{1}), anyOutcome}},
		{"write batch empty", cat([]byte{'B'}, u64(trace), u16(0)),
			[]piece{exact(ok, u16(0), u64(trace))}},
		{"read batch trace 0", cat([]byte{'b'}, u64(0), u16(2), u64(11), u64(99)),
			[]piece{exact(ok, u16(2)), minted,
				exact(ok, []byte{1}, l2[:]), anyLat,
				exact(ok, []byte{0}, zero[:]), anyLat}},
		{"read batch traced", cat([]byte{'b'}, u64(trace), u16(1), u64(10)),
			[]piece{exact(ok, u16(1), u64(trace)), exact(ok, []byte{1}, l1[:]), anyLat}},
		{"read batch empty", cat([]byte{'b'}, u64(0), u16(0)),
			[]piece{exact(ok, u16(0), u64(0))}},
		{"flush", []byte{'F'}, []piece{exact(ok)}},
		{"stats", []byte{'S'}, []piece{exact(ok), {stats: true}}},
		{"unknown op", []byte{'X'}, []piece{exact([]byte{server.StatusBadRequest})}},
		// Malformed: the server answers and drops the connection, so this
		// case must stay last.
		{"oversized batch", cat([]byte{'B'}, u64(0), u16(server.MaxBatchOps+1)),
			[]piece{exact([]byte{server.StatusBadRequest})}},
	}

	for _, h := range []struct {
		name string
		addr string
	}{{"node", wireNode(t).TCPAddr()}, {"front", wireFront(t)}} {
		t.Run(h.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", h.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
			br := bufio.NewReader(conn)
			for _, c := range cases {
				if _, err := conn.Write(c.req); err != nil {
					t.Fatal(err)
				}
				if err := check(br, c.resp); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
			if n, err := br.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("connection still open after a malformed frame (n=%d, err=%v)", n, err)
			}
		})
	}
}

// validWriteBody returns a well-formed write request body after the op
// and trace fields.
func validWriteBody(addr uint64) []byte {
	b := u64(addr)
	for i := 8; i < 8+ecc.LineSize; i++ {
		b = append(b, byte(i))
	}
	return b
}

// FuzzTCPFrame throws arbitrary byte streams at the binary protocol's
// frame codec, driving the node handler in process and the router front
// over a real connection. Malformed frames must produce an error status
// or drop the connection — never a panic, never a hang.
func FuzzTCPFrame(f *testing.F) {
	f.Add(cat([]byte{server.OpWrite}, u64(0), validWriteBody(7)))
	f.Add(cat([]byte{server.OpRead}, u64(0xBEEF), u64(7)))
	f.Add([]byte{server.OpFlush})
	f.Add([]byte{server.OpStats})
	f.Add(cat([]byte{server.OpWrite}, u64(1), []byte{0x01, 0x02})) // truncated write
	f.Add([]byte{server.OpRead})                                   // truncated trace
	f.Add([]byte{0xFF, 0x00, 0x01})                                // unknown op
	f.Add(cat([]byte{server.OpWrite}, u64(0)))                     // header only
	f.Add(bytes.Repeat([]byte{server.OpFlush}, 16))                // frame burst
	f.Add(cat([]byte{0x00}, u64(0), validWriteBody(1)))            // zero op
	f.Add(cat([]byte{server.OpWrite}, u64(42), validWriteBody(7), []byte{server.OpRead}, u64(0), u64(7)))

	node := server.NodeHandler(wireNode(f))
	front := wireFront(f)
	f.Fuzz(func(t *testing.T, stream []byte) {
		server.ServeStream(node, stream)
		exchange(t, front, stream)
	})
}

// validBatchBody returns a well-formed 'B' body after the trace field,
// with n write records.
func validBatchBody(n int) []byte {
	b := u16(uint16(n))
	for i := 0; i < n; i++ {
		b = append(b, validWriteBody(uint64(i))...)
	}
	return b
}

// FuzzTCPFrameBatch focuses the fuzzer on the batch frames: truncated
// bodies, zero-op batches, oversized counts and garbage after the count
// must produce an error status or drop the connection — never a panic,
// never a hang — on both handlers.
func FuzzTCPFrameBatch(f *testing.F) {
	wb, rb := []byte{server.OpWriteBatch}, []byte{server.OpReadBatch}
	f.Add(cat(wb, u64(0), validBatchBody(3)))
	f.Add(cat(wb, u64(9), validBatchBody(0)))
	f.Add(cat(wb, u64(0)))                                     // no count
	f.Add(cat(wb, u64(0), []byte{0x05}))                       // half a count
	f.Add(cat(wb, u64(0), u16(2), []byte{0xAA}))               // count 2, truncated body
	f.Add(cat(wb, u64(0), u16(0xFFFF)))                        // count 65535 > MaxBatchOps
	f.Add(cat(rb, u64(0), u16(0)))                             // zero reads
	f.Add(cat(rb, u64(7), u16(2), []byte{1, 2, 3}))            // truncated addresses
	f.Add(cat(rb, u64(0), u16(0x7FFF)))                        // oversized read count
	f.Add(cat(rb, u64(0), u16(1), u64(0), wb, u64(0), u16(1))) // read batch then truncated write batch

	node := server.NodeHandler(wireNode(f))
	front := wireFront(f)
	f.Fuzz(func(t *testing.T, stream []byte) {
		server.ServeStream(node, stream)
		exchange(t, front, stream)
	})
}
