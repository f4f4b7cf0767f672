package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/shard"
)

// Handler executes the ops of decoded binary-protocol frames. The node
// (over shard.Engine) and the cluster router's front (over the Router)
// each implement it; the frame codec and the connection loop in this file
// are shared by both.
//
// Data ops take the frame's trace ID (0 = mint one here) and return the
// ID the op ran under, which the response echoes. A scalar op reports its
// outcome in the same per-op result type a batch record carries, with
// the op's error in Err. Batch ops fill res[i] for every op; their error
// return fails the whole frame.
type Handler interface {
	Write(trace, addr uint64, line ecc.Line) (BatchWriteResult, uint64)
	Read(trace, addr uint64) (BatchReadResult, uint64)
	WriteBatch(trace uint64, ops []BatchWriteOp, res []BatchWriteResult) (uint64, error)
	ReadBatch(trace uint64, addrs []uint64, res []BatchReadResult) (uint64, error)
	Flush() error
	Stats() (StatsResponse, error)
}

// StatusOf maps an error onto the status byte a response carries: nil as
// StatusOK, the engine's flow-control errors on a node, the client-side
// errors a router relays from its nodes, and anything else as
// StatusBadRequest.
func StatusOf(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, shard.ErrOverloaded), errors.Is(err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrTimeout):
		return StatusTimeout
	case errors.Is(err, shard.ErrClosed), errors.Is(err, ErrClosing):
		return StatusClosing
	case errors.Is(err, ErrUnavailable):
		return StatusUnavailable
	default:
		return StatusBadRequest
	}
}

// FrameServer serves the binary protocol on one listener: it accepts
// connections, runs each through the frame codec against a Handler, and
// drains them on Shutdown. A connection's requests run one at a time, in
// arrival order. Replies are buffered and written out once no request
// bytes remain buffered, so k frames a client pipelined in one push are
// answered in request order with one write.
type FrameServer struct {
	ln       net.Listener
	h        Handler
	draining <-chan struct{}

	accepting chan struct{}  // closed when the accept loop exits
	inflight  sync.WaitGroup // connection handlers
	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
}

// ListenFrames listens on addr and serves h until Shutdown. Once the
// owner closes draining, new connections are refused and idle ones exit
// within one poll interval; the owner closes it before Shutdown.
func ListenFrames(addr string, h Handler, draining <-chan struct{}) (*FrameServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeFrames(ln, h, draining), nil
}

// ServeFrames is ListenFrames on a listener the caller opened; Shutdown
// closes it.
func ServeFrames(ln net.Listener, h Handler, draining <-chan struct{}) *FrameServer {
	fs := &FrameServer{ln: ln, h: h, draining: draining, accepting: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	go fs.accept()
	return fs
}

// Addr returns the bound listen address.
func (fs *FrameServer) Addr() string { return fs.ln.Addr().String() }

// Shutdown stops accepting and waits for the connection handlers, which
// finish the frame in flight and exit. On ctx expiry the remaining
// connections are cut and ctx.Err() is returned.
func (fs *FrameServer) Shutdown(ctx context.Context) error {
	_ = fs.ln.Close()
	<-fs.accepting // no handler can be added once Wait starts
	done := make(chan struct{})
	go func() { fs.inflight.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		fs.connMu.Lock()
		for c := range fs.conns {
			_ = c.Close()
		}
		fs.connMu.Unlock()
		<-done
		return ctx.Err()
	}
}

// accept runs the accept loop until Shutdown closes the listener.
func (fs *FrameServer) accept() {
	defer close(fs.accepting)
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return // listener closed
		}
		select {
		case <-fs.draining:
			_ = conn.Close()
			continue
		default:
		}
		fs.connMu.Lock()
		fs.conns[conn] = struct{}{}
		fs.connMu.Unlock()
		fs.inflight.Add(1)
		go fs.serveConn(conn)
	}
}

// pollInterval bounds how long an idle connection reads before it checks
// whether the server is draining; frameTimeout bounds the wait for the
// rest of a frame that has begun.
const (
	pollInterval = 500 * time.Millisecond
	frameTimeout = 10 * time.Second
)

func (fs *FrameServer) serveConn(conn net.Conn) {
	defer func() {
		fs.connMu.Lock()
		delete(fs.conns, conn)
		fs.connMu.Unlock()
		_ = conn.Close()
		fs.inflight.Done()
	}()
	c := newFrameCodec(conn, fs.h)
	// poll is when the idle read deadline runs out; zero forces a re-arm.
	var poll time.Time
	for {
		// Between frames the connection idles; poll the read with a short
		// deadline so draining connections notice Shutdown within one
		// interval. Only a read that may wait needs it, and it is re-armed
		// only once less than half of it is left, not per frame.
		if c.br.Buffered() == 0 {
			if now := time.Now(); poll.Sub(now) < pollInterval/2 {
				poll = now.Add(pollInterval)
				_ = conn.SetReadDeadline(poll)
			}
		}
		op, err := c.br.ReadByte()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				select {
				case <-fs.draining:
					return
				default:
					continue // the expired poll is re-armed above
				}
			}
			return // EOF or broken connection
		}
		// A frame has begun: finish it even while draining. Unless its
		// rest is already buffered, it gets the long deadline, and the
		// short poll is re-armed before the connection idles again.
		if !c.frameBuffered(op) {
			_ = conn.SetReadDeadline(time.Now().Add(frameTimeout))
			poll = time.Time{}
		}
		if !c.next(op) {
			return
		}
	}
}

// readRespLen is the largest fixed-size piece the codec encodes at once:
// a scalar read response.
const readRespLen = 1 + 1 + ecc.LineSize + 8 + traceLen

// frameCodec decodes request frames from br, executes them through h and
// encodes the responses to bw. There is one per connection: requests are
// read straight out of br's buffer and responses are built in out, so
// neither direction allocates per frame. Both buffers are connBufSize,
// so a full batch frame, or the frames one routed wave sends a node, is
// read in one go and answered with one write.
type frameCodec struct {
	br  *bufio.Reader
	bw  *bufio.Writer
	h   Handler
	out [readRespLen]byte
}

func newFrameCodec(conn net.Conn, h Handler) *frameCodec {
	return &frameCodec{br: bufio.NewReaderSize(conn, connBufSize), bw: bufio.NewWriterSize(conn, connBufSize), h: h}
}

// next serves the frame whose op byte was just read, then flushes the
// buffered replies unless more request bytes are already buffered: those
// belong to frames the client pipelined, whose replies join this one. It
// reports whether the connection stays open.
func (c *frameCodec) next(op byte) bool {
	if !c.serve(op) {
		return false
	}
	return c.br.Buffered() > 0 || c.bw.Flush() == nil
}

// frameBuffered reports whether the rest of the frame whose op byte was
// just read is already buffered, so that serving it reads no socket. A
// batch frame's count is peeked only once it is buffered.
func (c *frameCodec) frameBuffered(op byte) bool {
	n := c.br.Buffered()
	var per int
	switch op {
	case OpWrite:
		return n >= traceLen+writeReqLen
	case OpRead:
		return n >= traceLen+readReqLen
	case OpWriteBatch:
		per = writeReqLen
	case OpReadBatch:
		per = readReqLen
	default:
		return true // flush, stats and unknown ops have no body
	}
	if n < traceLen+2 {
		return false
	}
	head, _ := c.br.Peek(traceLen + 2) // cannot fail: the head is buffered
	count := int(binary.LittleEndian.Uint16(head[traceLen:]))
	// An oversized count ends the frame at its head (see count).
	return count > MaxBatchOps || n >= len(head)+count*per
}

// batchScratch holds one batch frame's decoded requests and results. It
// is pooled and recycled as soon as the frame's response is encoded:
// handlers copy what they keep (the node engine copies lines into its own
// sub-batch buffers at submit time).
type batchScratch struct {
	wops  [MaxBatchOps]BatchWriteOp
	wres  [MaxBatchOps]BatchWriteResult
	addrs [MaxBatchOps]uint64
	rres  [MaxBatchOps]BatchReadResult
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// take consumes the next n request bytes (see the package-level take).
func (c *frameCodec) take(n int) ([]byte, bool) {
	b, err := take(c.br, n)
	return b, err == nil
}

func (c *frameCodec) write(b []byte) bool {
	_, err := c.bw.Write(b)
	return err == nil
}

func (c *frameCodec) status(st byte) bool { return c.bw.WriteByte(st) == nil }

// count reads a batch frame's op count. An oversized count is malformed,
// not flow control: the body was never read, so the stream position is
// unknown — the status is flushed and the connection dropped.
func (c *frameCodec) count() (int, bool) {
	b, ok := c.take(2)
	if !ok {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > MaxBatchOps {
		c.status(StatusBadRequest)
		_ = c.bw.Flush()
		return 0, false
	}
	return n, true
}

// batchHead encodes a batch response head: status, count, trace.
func (c *frameCodec) batchHead(n int, trace uint64) bool {
	b := c.out[:3+traceLen]
	b[0] = StatusOK
	binary.LittleEndian.PutUint16(b[1:], uint16(n))
	putU64(b[3:], trace)
	return c.write(b)
}

// writeRec encodes one write outcome as a batch record in out: the status,
// then the payload (zero unless the status is OK).
func (c *frameCodec) writeRec(r *BatchWriteResult) []byte {
	b := c.out[:writeBatchRecLen]
	clear(b)
	b[0] = StatusOf(r.Err)
	if r.Err != nil {
		return b
	}
	if r.Dedup {
		b[1] = 1
	}
	putU64(b[2:], r.PhysAddr)
	putU64(b[10:], uint64(r.LatencyNs))
	return b
}

// readRec is writeRec for a read outcome.
func (c *frameCodec) readRec(r *BatchReadResult) []byte {
	b := c.out[:readBatchRecLen]
	clear(b)
	b[0] = StatusOf(r.Err)
	if r.Err != nil {
		return b
	}
	if r.Hit {
		b[1] = 1
	}
	copy(b[2:], r.Data[:])
	putU64(b[2+ecc.LineSize:], uint64(r.LatencyNs))
	return b
}

// serve reads the rest of one request frame, executes it and encodes the
// response. It returns false when the connection should be dropped
// (malformed or truncated frame, or a write error).
func (c *frameCodec) serve(op byte) bool {
	var trace uint64
	switch op {
	case OpWrite, OpRead, OpWriteBatch, OpReadBatch:
		b, ok := c.take(traceLen)
		if !ok {
			return false
		}
		trace = getU64(b)
	}

	switch op {
	case OpWrite:
		b, ok := c.take(writeReqLen)
		if !ok {
			return false
		}
		var line ecc.Line
		copy(line[:], b[8:])
		res, id := c.h.Write(trace, getU64(b), line)
		if res.Err != nil {
			return c.status(StatusOf(res.Err))
		}
		c.writeRec(&res)
		putU64(c.out[writeBatchRecLen:], id)
		return c.write(c.out[:writeBatchRecLen+traceLen])
	case OpRead:
		b, ok := c.take(readReqLen)
		if !ok {
			return false
		}
		res, id := c.h.Read(trace, getU64(b))
		if res.Err != nil {
			return c.status(StatusOf(res.Err))
		}
		c.readRec(&res)
		putU64(c.out[readBatchRecLen:], id)
		return c.write(c.out[:readBatchRecLen+traceLen])
	case OpWriteBatch:
		n, ok := c.count()
		if !ok {
			return false
		}
		if n == 0 {
			return c.batchHead(0, trace)
		}
		sc := batchScratchPool.Get().(*batchScratch)
		defer batchScratchPool.Put(sc)
		ops := sc.wops[:n]
		for i := range ops {
			b, ok := c.take(writeReqLen)
			if !ok {
				return false
			}
			ops[i].Addr = getU64(b)
			copy(ops[i].Line[:], b[8:])
		}
		res := sc.wres[:n]
		id, err := c.h.WriteBatch(trace, ops, res)
		if err != nil {
			return c.status(StatusOf(err))
		}
		if !c.batchHead(n, id) {
			return false
		}
		for i := range res {
			if !c.write(c.writeRec(&res[i])) {
				return false
			}
		}
		return true
	case OpReadBatch:
		n, ok := c.count()
		if !ok {
			return false
		}
		if n == 0 {
			return c.batchHead(0, trace)
		}
		sc := batchScratchPool.Get().(*batchScratch)
		defer batchScratchPool.Put(sc)
		addrs := sc.addrs[:n]
		for i := range addrs {
			b, ok := c.take(readReqLen)
			if !ok {
				return false
			}
			addrs[i] = getU64(b)
		}
		res := sc.rres[:n]
		id, err := c.h.ReadBatch(trace, addrs, res)
		if err != nil {
			return c.status(StatusOf(err))
		}
		if !c.batchHead(n, id) {
			return false
		}
		for i := range res {
			if !c.write(c.readRec(&res[i])) {
				return false
			}
		}
		return true
	case OpFlush:
		if err := c.h.Flush(); err != nil {
			return c.status(StatusOf(err))
		}
		return c.status(StatusOK)
	case OpStats:
		st, err := c.h.Stats()
		if err != nil {
			return c.status(StatusOf(err))
		}
		payload, err := json.Marshal(st)
		if err != nil {
			return c.status(StatusBadRequest)
		}
		head := c.out[:5]
		head[0] = StatusOK
		binary.LittleEndian.PutUint32(head[1:], uint32(len(payload)))
		return c.write(head) && c.write(payload)
	default:
		return c.status(StatusBadRequest)
	}
}
