package server

import (
	"errors"
	"sync"
	"time"
)

// ErrPoolClosed is returned by Pool.Get after Close.
var ErrPoolClosed = errors.New("server: pool closed")

// Pool maintains reusable binary-protocol connections to one backend
// address. A TCPClient is single-owner, so concurrent callers each borrow
// a connection with Get and return it with Put; the pool keeps up to
// MaxIdle returned connections around and dials on demand when the idle
// list is empty. Connections idle for longer than IdleTimeout are closed
// — lazily on Get/Put and explicitly via Reap — so a quiet pool does not
// pin file descriptors on the backend forever.
//
// The cluster router holds one Pool per backend node; N router
// connections fan out over N×MaxIdle backend connections at most.
//
// A connection comes back from Put with the deadlines its last borrower
// armed, possibly long expired: every borrower arms its own before its
// first round trip, so clearing them on the way in would only add a
// timer update per checkout.
type Pool struct {
	addr        string
	maxIdle     int
	idleTimeout time.Duration

	mu     sync.Mutex
	idle   []idleConn // LIFO: newest at the tail
	dials  uint64
	reuses uint64
	closed bool
}

type idleConn struct {
	c     *TCPClient
	since time.Time // when the connection went idle
}

// NewPool builds a pool dialing addr. maxIdle bounds the retained idle
// connections (default 8 when <= 0); idleTimeout bounds how long an idle
// connection is kept (default 30s when <= 0).
func NewPool(addr string, maxIdle int, idleTimeout time.Duration) *Pool {
	if maxIdle <= 0 {
		maxIdle = 8
	}
	if idleTimeout <= 0 {
		idleTimeout = 30 * time.Second
	}
	return &Pool{addr: addr, maxIdle: maxIdle, idleTimeout: idleTimeout}
}

// Addr returns the backend address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// Get borrows a connection: the most recently returned idle one when
// fresh enough, otherwise a new dial. The caller must hand the connection
// back with Put (clean) or Discard (broken).
func (p *Pool) Get() (*TCPClient, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	p.reapLocked(time.Now())
	if n := len(p.idle); n > 0 {
		ic := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.reuses++
		p.mu.Unlock()
		return ic.c, nil
	}
	p.dials++
	p.mu.Unlock()
	return DialTCP(p.addr)
}

// Put returns a healthy connection to the idle list, deadlines as they
// stand (see Pool). Over-cap and post-Close returns close the connection
// instead.
func (p *Pool) Put(c *TCPClient) {
	if c == nil {
		return
	}
	now := time.Now()
	p.mu.Lock()
	p.reapLocked(now)
	if p.closed || len(p.idle) >= p.maxIdle {
		p.mu.Unlock()
		_ = c.Close()
		return
	}
	p.idle = append(p.idle, idleConn{c: c, since: now})
	p.mu.Unlock()
}

// Discard closes a connection whose framing can no longer be trusted
// (I/O error or deadline expiry mid-frame).
func (p *Pool) Discard(c *TCPClient) {
	if c != nil {
		_ = c.Close()
	}
}

// Reap closes idle connections that have been idle longer than the pool's
// IdleTimeout as of now, returning how many were closed. Get and Put reap
// opportunistically; callers with long quiet periods may drive it from a
// ticker.
func (p *Pool) Reap(now time.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reapLocked(now)
}

// reapLocked drops expired idle connections (oldest live at the head).
func (p *Pool) reapLocked(now time.Time) int {
	cut := 0
	for cut < len(p.idle) && now.Sub(p.idle[cut].since) > p.idleTimeout {
		cut++
	}
	if cut == 0 {
		return 0
	}
	for i := 0; i < cut; i++ {
		_ = p.idle[i].c.Close()
	}
	p.idle = append(p.idle[:0], p.idle[cut:]...)
	return cut
}

// IdleLen returns the current idle-connection count.
func (p *Pool) IdleLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Dials returns the number of connections the pool has dialed.
func (p *Pool) Dials() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials
}

// Reuses returns the number of Gets served from the idle list.
func (p *Pool) Reuses() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reuses
}

// Close closes every idle connection and fails further Gets. Borrowed
// connections are closed as they come back through Put.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, ic := range idle {
		_ = ic.c.Close()
	}
}
