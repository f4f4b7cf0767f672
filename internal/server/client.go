package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"github.com/esdsim/esd/internal/ecc"
)

// Client-visible flow-control errors, shared by the HTTP and TCP clients.
var (
	// ErrOverloaded reports HTTP 429 / StatusOverloaded: the target shard
	// queue was full and the request was shed.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrTimeout reports HTTP 504 / StatusTimeout.
	ErrTimeout = errors.New("server: request timed out")
	// ErrClosing reports HTTP 503 / StatusClosing: the server is draining.
	ErrClosing = errors.New("server: closing")
	// ErrUnavailable reports StatusUnavailable: a cluster router found no
	// healthy replica for the address (every candidate node was down or
	// exhausted its retry budget).
	ErrUnavailable = errors.New("server: no healthy replica")
)

// Client issues requests against a Server. Implemented by HTTPClient and
// TCPClient; esdload picks one via -proto.
type Client interface {
	Write(addr uint64, line ecc.Line) (WriteResponse, error)
	Read(addr uint64) (ReadResponse, error)
	Flush() error
	Stats() (StatsResponse, error)
	Close() error
}

// HTTPClient talks to the JSON API. Safe for concurrent use.
type HTTPClient struct {
	base string
	hc   *http.Client
}

// NewHTTPClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func NewHTTPClient(base string) *HTTPClient {
	return &HTTPClient{base: base, hc: &http.Client{Timeout: 30 * time.Second}}
}

func httpErr(code int, body []byte) error {
	switch code {
	case http.StatusTooManyRequests:
		return ErrOverloaded
	case http.StatusGatewayTimeout:
		return ErrTimeout
	case http.StatusServiceUnavailable:
		return ErrClosing
	default:
		return fmt.Errorf("server: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
}

func (c *HTTPClient) doJSON(method, path string, body io.Reader, out interface{}) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return httpErr(resp.StatusCode, b)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *HTTPClient) Write(addr uint64, line ecc.Line) (WriteResponse, error) {
	body, _ := json.Marshal(WriteRequest{Addr: addr, Data: line[:]})
	var out WriteResponse
	err := c.doJSON(http.MethodPost, "/v1/write", bytes.NewReader(body), &out)
	return out, err
}

func (c *HTTPClient) Read(addr uint64) (ReadResponse, error) {
	var out ReadResponse
	err := c.doJSON(http.MethodGet, "/v1/read?addr="+url.QueryEscape(fmt.Sprint(addr)), nil, &out)
	return out, err
}

func (c *HTTPClient) Flush() error {
	return c.doJSON(http.MethodPost, "/v1/flush", nil, nil)
}

func (c *HTTPClient) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.doJSON(http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

func (c *HTTPClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// BatchWriteOp is one write in a TCPClient.WriteBatch frame.
type BatchWriteOp struct {
	Addr uint64
	Line ecc.Line
}

// BatchWriteResult is one per-op result of a batched write. Err decodes
// the per-op status (nil on StatusOK); the payload fields are valid only
// when Err is nil.
type BatchWriteResult struct {
	Err       error
	Dedup     bool
	PhysAddr  uint64
	LatencyNs float64
}

// BatchReadResult is one per-op result of a batched read.
type BatchReadResult struct {
	Err       error
	Hit       bool
	Data      ecc.Line
	LatencyNs float64
}

// TCPClient speaks the binary protocol over one connection. NOT safe for
// concurrent use; esdload opens one per worker.
//
// Each data frame has a send half and a receive half (SendWrite and
// RecvWrite, and so on). A send half only buffers its request; Push
// writes every buffered request out in one go. The round-trip methods
// send, push and receive in one call. A connection may carry several
// requests in flight, and the server answers them in request order: a
// caller that sends k frames and pushes once reads the k replies in send
// order, each with the receive half matching its frame. The cluster
// router sends all of a wave's frames for one node this way, and holds a
// connection to each node of the wave before it reads any reply.
//
// The buffers hold any frame, and one node's share of a routed batch wave
// (connBufSize): requests are built and replies decoded in place.
type TCPClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// DialTCP connects a binary-protocol client to addr.
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return &TCPClient{
		conn: conn,
		br:   bufio.NewReaderSize(conn, connBufSize),
		bw:   bufio.NewWriterSize(conn, connBufSize),
	}, nil
}

func statusErr(st byte) error {
	switch st {
	case StatusOverloaded:
		return ErrOverloaded
	case StatusTimeout:
		return ErrTimeout
	case StatusClosing:
		return ErrClosing
	case StatusUnavailable:
		return ErrUnavailable
	default:
		return fmt.Errorf("server: %s", statusText(st))
	}
}

// frame returns n bytes of the write buffer's free space to build one
// request frame in, flushing the requests already buffered first when
// they leave too little room; queue then appends the frame.
func (c *TCPClient) frame(n int) ([]byte, error) {
	if c.bw.Available() < n {
		if err := c.bw.Flush(); err != nil {
			return nil, err
		}
	}
	return c.bw.AvailableBuffer()[:n], nil
}

// queue appends a frame built in the write buffer's free space (see
// frame) to the buffered requests.
func (c *TCPClient) queue(frame []byte) error {
	_, err := c.bw.Write(frame)
	return err
}

// Push writes every buffered request out. The round-trip methods push
// for themselves; a caller of the send halves pushes once after its last
// frame, then reads the replies in send order.
func (c *TCPClient) Push() error { return c.bw.Flush() }

// send writes one request frame and pushes it.
func (c *TCPClient) send(frame []byte) error {
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.Push()
}

// recvStatus reads a response's status byte and maps a non-OK status to
// its error.
func (c *TCPClient) recvStatus() error {
	st, err := c.br.ReadByte()
	if err != nil {
		return err
	}
	if st != StatusOK {
		return statusErr(st)
	}
	return nil
}

// roundTrip sends one request frame and reads the status byte.
func (c *TCPClient) roundTrip(frame []byte) (byte, error) {
	if err := c.send(frame); err != nil {
		return 0, err
	}
	return c.br.ReadByte()
}

// Write is WriteTraced with trace 0: the server mints the request's trace
// ID and the response carries it.
func (c *TCPClient) Write(addr uint64, line ecc.Line) (WriteResponse, error) {
	return c.WriteTraced(0, addr, line)
}

// Read is ReadTraced with trace 0.
func (c *TCPClient) Read(addr uint64) (ReadResponse, error) {
	return c.ReadTraced(0, addr)
}

// WriteBatch is WriteBatchTraced with trace 0.
func (c *TCPClient) WriteBatch(ops []BatchWriteOp, res []BatchWriteResult) error {
	_, err := c.WriteBatchTraced(0, ops, res)
	return err
}

// ReadBatch is ReadBatchTraced with trace 0.
func (c *TCPClient) ReadBatch(addrs []uint64, res []BatchReadResult) error {
	_, err := c.ReadBatchTraced(0, addrs, res)
	return err
}

// WriteTraced sends one 'W' frame under the caller's trace ID (0 asks the
// server to mint one) and reads its response. The response's Trace is the
// ID the write ran under.
func (c *TCPClient) WriteTraced(trace, addr uint64, line ecc.Line) (WriteResponse, error) {
	if err := c.SendWrite(trace, addr, line); err != nil {
		return WriteResponse{}, err
	}
	if err := c.Push(); err != nil {
		return WriteResponse{}, err
	}
	return c.RecvWrite()
}

// SendWrite is the send half of WriteTraced: it buffers the frame.
func (c *TCPClient) SendWrite(trace, addr uint64, line ecc.Line) error {
	frame, err := c.frame(1 + traceLen + writeReqLen)
	if err != nil {
		return err
	}
	frame[0] = OpWrite
	putU64(frame[1:], trace)
	putU64(frame[1+traceLen:], addr)
	copy(frame[1+traceLen+8:], line[:])
	return c.queue(frame)
}

// RecvWrite is the receive half of WriteTraced.
func (c *TCPClient) RecvWrite() (WriteResponse, error) {
	if err := c.recvStatus(); err != nil {
		return WriteResponse{}, err
	}
	payload, err := take(c.br, writeBatchRecLen-1+traceLen)
	if err != nil {
		return WriteResponse{}, err
	}
	return WriteResponse{
		Dedup:     payload[0] == 1,
		PhysAddr:  getU64(payload[1:9]),
		LatencyNs: float64(getU64(payload[9:17])),
		Trace:     getU64(payload[17:]),
	}, nil
}

// ReadTraced is Read under the caller's trace ID (see WriteTraced).
func (c *TCPClient) ReadTraced(trace, addr uint64) (ReadResponse, error) {
	if err := c.SendRead(trace, addr); err != nil {
		return ReadResponse{}, err
	}
	if err := c.Push(); err != nil {
		return ReadResponse{}, err
	}
	return c.RecvRead()
}

// SendRead is the send half of ReadTraced: it buffers the frame.
func (c *TCPClient) SendRead(trace, addr uint64) error {
	frame, err := c.frame(1 + traceLen + readReqLen)
	if err != nil {
		return err
	}
	frame[0] = OpRead
	putU64(frame[1:], trace)
	putU64(frame[1+traceLen:], addr)
	return c.queue(frame)
}

// RecvRead is the receive half of ReadTraced. Its Data is a fresh copy
// of the line; RecvReadLine decodes without one.
func (c *TCPClient) RecvRead() (ReadResponse, error) {
	var res BatchReadResult
	trace, err := c.RecvReadLine(&res)
	if err != nil {
		return ReadResponse{}, err
	}
	return ReadResponse{Hit: res.Hit, Data: append([]byte(nil), res.Data[:]...), LatencyNs: res.LatencyNs, Trace: trace}, nil
}

// RecvReadLine is RecvRead decoding the reply into res in place, the line
// by value, so it allocates nothing; it returns the echoed trace ID. A
// status reply leaves res untouched.
func (c *TCPClient) RecvReadLine(res *BatchReadResult) (uint64, error) {
	if err := c.recvStatus(); err != nil {
		return 0, err
	}
	payload, err := take(c.br, readBatchRecLen-1+traceLen)
	if err != nil {
		return 0, err
	}
	res.Err = nil
	res.Hit = payload[0] == 1
	copy(res.Data[:], payload[1:1+ecc.LineSize])
	res.LatencyNs = float64(getU64(payload[1+ecc.LineSize : 1+ecc.LineSize+8]))
	return getU64(payload[1+ecc.LineSize+8:]), nil
}

// checkCount bounds a batch frame's op count.
func checkCount(n int) error {
	if n > MaxBatchOps {
		return fmt.Errorf("server: batch of %d ops exceeds MaxBatchOps=%d", n, MaxBatchOps)
	}
	return nil
}

// checkResults validates a batch round trip's results slice length.
func checkResults(ops, res int) error {
	if res != ops {
		return fmt.Errorf("server: results slice has %d entries for %d ops", res, ops)
	}
	return nil
}

// recvBatchHead reads a batch response head, checks that it carries n
// results and returns the echoed trace ID.
func (c *TCPClient) recvBatchHead(n int) (uint64, error) {
	if err := c.recvStatus(); err != nil {
		return 0, err
	}
	head, err := take(c.br, batchHeadLen-1)
	if err != nil {
		return 0, err
	}
	if got := int(binary.LittleEndian.Uint16(head)); got != n {
		return 0, fmt.Errorf("server: batch response carries %d results for %d ops", got, n)
	}
	return getU64(head[2:]), nil
}

// WriteBatchTraced sends every op in one 'B' frame under the caller's
// trace ID — one round trip for the whole batch — and decodes the per-op
// results into res, which must have len(ops) entries. len(ops) must not
// exceed MaxBatchOps. It returns the trace ID the batch ran under. The
// error reports transport or framing failure; per-op flow control
// (overloaded, timeout, closing) lands in res[i].Err.
func (c *TCPClient) WriteBatchTraced(trace uint64, ops []BatchWriteOp, res []BatchWriteResult) (uint64, error) {
	if err := checkResults(len(ops), len(res)); err != nil {
		return 0, err
	}
	if err := c.SendWriteBatch(trace, ops); err != nil {
		return 0, err
	}
	if err := c.Push(); err != nil {
		return 0, err
	}
	return c.RecvWriteBatch(res)
}

// SendWriteBatch is the send half of WriteBatchTraced: it buffers the
// frame.
func (c *TCPClient) SendWriteBatch(trace uint64, ops []BatchWriteOp) error {
	if err := checkCount(len(ops)); err != nil {
		return err
	}
	frame, err := c.frame(batchHeadLen + len(ops)*writeReqLen)
	if err != nil {
		return err
	}
	frame[0] = OpWriteBatch
	putU64(frame[1:], trace)
	binary.LittleEndian.PutUint16(frame[1+traceLen:], uint16(len(ops)))
	for i := range ops {
		rec := frame[1+traceLen+2+i*writeReqLen:]
		putU64(rec, ops[i].Addr)
		copy(rec[8:], ops[i].Line[:])
	}
	return c.queue(frame)
}

// RecvWriteBatch is the receive half of WriteBatchTraced: res must have
// one entry per op the frame carried.
func (c *TCPClient) RecvWriteBatch(res []BatchWriteResult) (uint64, error) {
	echo, err := c.recvBatchHead(len(res))
	if err != nil {
		return 0, err
	}
	payload, err := take(c.br, len(res)*writeBatchRecLen)
	if err != nil {
		return 0, err
	}
	for i := range res {
		rec := payload[i*writeBatchRecLen:]
		if rec[0] != StatusOK {
			res[i] = BatchWriteResult{Err: statusErr(rec[0])}
			continue
		}
		res[i] = BatchWriteResult{
			Dedup:     rec[1] == 1,
			PhysAddr:  getU64(rec[2:10]),
			LatencyNs: float64(getU64(rec[10:18])),
		}
	}
	return echo, nil
}

// ReadBatchTraced sends every address in one 'b' frame and decodes the
// per-op results into res (len(addrs) entries; see WriteBatchTraced for
// the error contract).
func (c *TCPClient) ReadBatchTraced(trace uint64, addrs []uint64, res []BatchReadResult) (uint64, error) {
	if err := checkResults(len(addrs), len(res)); err != nil {
		return 0, err
	}
	if err := c.SendReadBatch(trace, addrs); err != nil {
		return 0, err
	}
	if err := c.Push(); err != nil {
		return 0, err
	}
	return c.RecvReadBatch(res)
}

// SendReadBatch is the send half of ReadBatchTraced: it buffers the
// frame.
func (c *TCPClient) SendReadBatch(trace uint64, addrs []uint64) error {
	if err := checkCount(len(addrs)); err != nil {
		return err
	}
	frame, err := c.frame(batchHeadLen + len(addrs)*readReqLen)
	if err != nil {
		return err
	}
	frame[0] = OpReadBatch
	putU64(frame[1:], trace)
	binary.LittleEndian.PutUint16(frame[1+traceLen:], uint16(len(addrs)))
	for i, a := range addrs {
		putU64(frame[1+traceLen+2+i*readReqLen:], a)
	}
	return c.queue(frame)
}

// RecvReadBatch is the receive half of ReadBatchTraced (see
// RecvWriteBatch).
func (c *TCPClient) RecvReadBatch(res []BatchReadResult) (uint64, error) {
	echo, err := c.recvBatchHead(len(res))
	if err != nil {
		return 0, err
	}
	payload, err := take(c.br, len(res)*readBatchRecLen)
	if err != nil {
		return 0, err
	}
	for i := range res {
		rec := payload[i*readBatchRecLen:]
		if rec[0] != StatusOK {
			res[i] = BatchReadResult{Err: statusErr(rec[0])}
			continue
		}
		res[i].Err = nil
		res[i].Hit = rec[1] == 1
		copy(res[i].Data[:], rec[2:2+ecc.LineSize])
		res[i].LatencyNs = float64(getU64(rec[2+ecc.LineSize : 2+ecc.LineSize+8]))
	}
	return echo, nil
}

func (c *TCPClient) Flush() error {
	st, err := c.roundTrip([]byte{OpFlush})
	if err != nil {
		return err
	}
	if st != StatusOK {
		return statusErr(st)
	}
	return nil
}

func (c *TCPClient) Stats() (StatsResponse, error) {
	st, err := c.roundTrip([]byte{OpStats})
	if err != nil {
		return StatsResponse{}, err
	}
	if st != StatusOK {
		return StatsResponse{}, statusErr(st)
	}
	var lenBuf [4]byte
	if err := readFull(c.br, lenBuf[:]); err != nil {
		return StatsResponse{}, err
	}
	n := int(lenBuf[0]) | int(lenBuf[1])<<8 | int(lenBuf[2])<<16 | int(lenBuf[3])<<24
	if n < 0 || n > 1<<20 {
		return StatsResponse{}, fmt.Errorf("server: stats payload length %d", n)
	}
	payload := make([]byte, n)
	if err := readFull(c.br, payload); err != nil {
		return StatsResponse{}, err
	}
	var out StatsResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		return StatsResponse{}, err
	}
	return out, nil
}

// SetDeadline bounds every subsequent round trip on the underlying
// connection (zero clears it). The cluster router sets a per-request
// deadline so a wedged backend costs a bounded wait, not a hang; after an
// expired deadline the connection's framing is unusable and it must be
// discarded, not reused.
func (c *TCPClient) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// SetReadDeadline is SetDeadline for the receive halves alone: it moves
// the bound on reading replies and leaves the write deadline as it is.
func (c *TCPClient) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

func (c *TCPClient) Close() error { return c.conn.Close() }
