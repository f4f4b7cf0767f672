// Package server is the network service front-end over the sharded
// engine: an HTTP/JSON API and a raw-TCP binary protocol exposing
// read/write/flush/stats, with per-request timeouts, backpressure
// (bounded shard queues surfaced as 429-style shedding) and graceful
// drain on shutdown.
//
// The binary protocol has one frame format (below) and one codec
// (FrameServer, frame.go), which serves both a node and the cluster
// router's front; each plugs its execution in as a Handler. The package
// also provides the matching clients used by cmd/esdload, the router and
// the tests.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/esdsim/esd/internal/ecc"
)

// Binary protocol ops (one request per frame, one response per frame).
// A connection may carry several requests in flight; the server answers
// them in request order.
//
// Request frames:
//
//	write:       'W' trace:8 addr:8 line:64
//	read:        'R' trace:8 addr:8
//	writeBatch:  'B' trace:8 count:2 count×(addr:8 line:64)
//	readBatch:   'b' trace:8 count:2 count×(addr:8)
//	flush:       'F'
//	stats:       'S'
//
// Response frames:
//
//	write:       status:1 [dedup:1 phys:8 latNs:8 trace:8]    (payload on StatusOK)
//	read:        status:1 [hit:1 line:64 latNs:8 trace:8]
//	writeBatch:  status:1 [count:2 trace:8 count×(status:1 dedup:1 phys:8 latNs:8)]
//	readBatch:   status:1 [count:2 trace:8 count×(status:1 hit:1 line:64 latNs:8)]
//	flush:       status:1
//	stats:       status:1 [len:4 json:len]
//
// All integers are little-endian. A non-OK status ends the frame after
// the status byte. Batch frames carry up to MaxBatchOps operations and
// complete one round trip for the whole batch; the frame-level status is
// non-OK only for malformed requests (count over the cap — the
// connection is then dropped), while per-op flow control (overloaded,
// timeout, closing) is reported in the fixed-size per-op records, whose
// payload fields are zero unless the op's status is StatusOK. A
// zero-count batch is valid and returns an OK frame with count 0 that
// echoes the request's trace field unchanged.
//
// Trace propagation: every data frame carries the originating trace ID
// in the 8 bytes after the op. A trace of 0 asks the receiver to mint an
// ID; a nonzero trace is adopted, so the cluster router's ID appears in
// the node's slow-request log, flight recorder and response. Every data
// response echoes the ID the request actually ran under.
const (
	OpWrite      byte = 'W'
	OpRead       byte = 'R'
	OpFlush      byte = 'F'
	OpStats      byte = 'S'
	OpWriteBatch byte = 'B'
	OpReadBatch  byte = 'b'
)

// MaxBatchOps caps the operations one batch frame may carry; it bounds
// the per-connection buffering a frame can demand on either side.
const MaxBatchOps = 256

// connBufSize sizes the buffered reader and writer at both ends of a
// connection. Any single frame fits (the largest is a full read-batch
// response), and so does one node's share of a routed batch wave in
// either direction: a MaxBatchOps client frame sends each op to a node at
// most once, in at most MaxBatchOps sub-batch frames of batchHeadLen
// bytes of head each.
const connBufSize = MaxBatchOps * (batchHeadLen + readBatchRecLen)

// batchHeadLen is a batch frame's head: the op (or status) byte, the
// count and the trace ID.
const batchHeadLen = 1 + 2 + traceLen

// Per-op response record sizes inside batch frames.
const (
	writeBatchRecLen = 1 + 1 + 8 + 8
	readBatchRecLen  = 1 + 1 + ecc.LineSize + 8
)

// Response status codes shared by the TCP protocol and, by analogy, the
// HTTP status mapping (429/504/503/400).
const (
	StatusOK          byte = 0
	StatusOverloaded  byte = 1 // shard queue full — retry with backoff
	StatusTimeout     byte = 2 // request exceeded the server's per-request budget
	StatusClosing     byte = 3 // server is draining
	StatusBadRequest  byte = 4
	StatusUnavailable byte = 5 // cluster router: no healthy replica for the address
)

// StatusText names a protocol status byte for logs and trace timelines.
func StatusText(s byte) string { return statusText(s) }

func statusText(s byte) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusTimeout:
		return "timeout"
	case StatusClosing:
		return "closing"
	case StatusBadRequest:
		return "bad request"
	case StatusUnavailable:
		return "no healthy replica"
	default:
		return fmt.Sprintf("status %d", s)
	}
}

// Per-op request body sizes; every data frame prefixes its body with
// traceLen bytes of trace ID.
const (
	writeReqLen = 8 + ecc.LineSize
	readReqLen  = 8
	traceLen    = 8
)

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// readFull is io.ReadFull with the usual EOF propagation.
func readFull(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	return err
}

// take consumes the next n bytes of br and returns them straight out of
// its buffer, which holds any frame (connBufSize); the slice is valid
// until the next read from br.
func take(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err != nil {
		return nil, err
	}
	_, _ = br.Discard(n) // cannot fail: Peek just buffered n bytes
	return b, nil
}
