package server

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/ecc"
)

// echoHandler answers every data op at once: writes with PhysAddr=addr,
// reads with a hit on the line lineOf(addr), each under the frame's trace.
type echoHandler struct{}

func lineOf(addr uint64) ecc.Line {
	var l ecc.Line
	l.SetWord(0, addr)
	return l
}

func (echoHandler) Write(trace, addr uint64, _ ecc.Line) (BatchWriteResult, uint64) {
	return BatchWriteResult{PhysAddr: addr}, trace
}

func (echoHandler) Read(trace, addr uint64) (BatchReadResult, uint64) {
	return BatchReadResult{Hit: true, Data: lineOf(addr)}, trace
}

func (echoHandler) WriteBatch(trace uint64, ops []BatchWriteOp, res []BatchWriteResult) (uint64, error) {
	for i := range ops {
		res[i] = BatchWriteResult{PhysAddr: ops[i].Addr}
	}
	return trace, nil
}

func (echoHandler) ReadBatch(trace uint64, addrs []uint64, res []BatchReadResult) (uint64, error) {
	for i, a := range addrs {
		res[i] = BatchReadResult{Hit: true, Data: lineOf(a)}
	}
	return trace, nil
}

func (echoHandler) Flush() error                  { return nil }
func (echoHandler) Stats() (StatsResponse, error) { return StatsResponse{}, nil }

// writeCountingListener counts the Write calls on every connection it
// accepts.
type writeCountingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCountingConn{c, l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// A client that sends k frames and pushes them at once gets the k replies
// in request order, and the node answers all of them with one write.
func TestFrameServerAnswersPipelinedFramesInOneWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	draining := make(chan struct{})
	fs := ServeFrames(writeCountingListener{ln, &writes}, echoHandler{}, draining)
	t.Cleanup(func() {
		close(draining)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = fs.Shutdown(ctx)
	})
	c, err := DialTCP(fs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ops := []BatchWriteOp{{Addr: 10, Line: lineOf(10)}, {Addr: 11, Line: lineOf(11)}}
	addrs := []uint64{20, 21, 22}
	send := []func() error{
		func() error { return c.SendWrite(1, 5, lineOf(5)) },
		func() error { return c.SendRead(2, 6) },
		func() error { return c.SendWriteBatch(3, ops) },
		func() error { return c.SendReadBatch(4, addrs) },
		func() error { return c.SendWrite(5, 7, lineOf(7)) },
	}
	for _, f := range send {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	if got := writes.Load(); got != 0 {
		t.Fatalf("node wrote %d times before the push", got)
	}
	if err := c.Push(); err != nil {
		t.Fatal(err)
	}

	// The replies, in send order: each echoes its frame's trace.
	var traces []uint64
	w, err := c.RecvWrite()
	if err != nil || w.PhysAddr != 5 {
		t.Fatalf("reply 1: %+v, %v", w, err)
	}
	traces = append(traces, w.Trace)
	r, err := c.RecvRead()
	if err != nil || !r.Hit || ecc.Line(r.Data) != lineOf(6) {
		t.Fatalf("reply 2: %+v, %v", r, err)
	}
	traces = append(traces, r.Trace)
	wres := make([]BatchWriteResult, len(ops))
	id, err := c.RecvWriteBatch(wres)
	if err != nil || wres[1].PhysAddr != 11 {
		t.Fatalf("reply 3: %+v, %v", wres, err)
	}
	traces = append(traces, id)
	rres := make([]BatchReadResult, len(addrs))
	id, err = c.RecvReadBatch(rres)
	if err != nil || rres[2].Data != lineOf(22) {
		t.Fatalf("reply 4: %+v, %v", rres, err)
	}
	traces = append(traces, id)
	if w, err = c.RecvWrite(); err != nil || w.PhysAddr != 7 {
		t.Fatalf("reply 5: %+v, %v", w, err)
	}
	traces = append(traces, w.Trace)
	for i, tr := range traces {
		if tr != uint64(i+1) {
			t.Fatalf("reply traces %v, want 1..5 in order", traces)
		}
	}
	if got := writes.Load(); got != 1 {
		t.Fatalf("node answered %d pipelined frames with %d writes, want 1", len(send), got)
	}
}
