package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// PublishWait bounds how long a render waits for a busy owner to publish
// its staged telemetry. An owner wedged mid-batch cannot hold a scrape
// longer than this; the render then shows the values of its last
// publication.
const PublishWait = 100 * time.Millisecond

// publishPoll is how often a waiting reader retries the owner lock, which
// covers an owner that went idle without seeing the request.
const publishPoll = time.Millisecond

// Publisher is the handshake between the one goroutine that owns staged
// telemetry — plain memory it writes with no lock or atomic per sample —
// and the readers that render it. The owner holds an owner lock whenever
// it runs, and checks Asked at its publication points (after each
// drained batch or inline request, or each replayed record). A reader
// that takes the owner lock has proven the owner idle and publishes
// itself; otherwise it asks, and the owner publishes at its next
// publication point while the reader waits, at most until a deadline.
// The zero value is ready to use.
type Publisher struct {
	asked atomic.Bool
	mu    sync.Mutex
	done  chan struct{} // closed by the next publication; nil when no reader waits
}

// Asked reports whether a reader waits for a publication: one atomic load,
// for the owner's publication points.
func (p *Publisher) Asked() bool { return p.asked.Load() }

// Served releases every reader waiting for a publication. The owner calls
// it, still holding the owner lock, right after publishing.
func (p *Publisher) Served() {
	if !p.asked.Load() {
		return
	}
	p.mu.Lock()
	ch := p.done
	p.done = nil
	p.asked.Store(false)
	p.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// Ask registers a reader's request and returns the channel the next
// publication closes. Asking several owners before waiting on any lets
// them all publish at once.
func (p *Publisher) Ask() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done == nil {
		p.done = make(chan struct{})
	}
	p.asked.Store(true)
	return p.done
}

// Await brings the published values up to date for a reader: under own
// when the lock is free, where publish runs on the reader's goroutine,
// or else by the owner's next publication point. It waits at most until
// deadline and reports whether a publication happened. publish must be
// the owner's own publication: Await calls it holding own.
func (p *Publisher) Await(own *sync.Mutex, publish func(), deadline time.Time) bool {
	done := p.Ask()
	for {
		if own.TryLock() {
			publish()
			p.Served()
			own.Unlock()
			return true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		t := time.NewTimer(min(wait, publishPoll))
		select {
		case <-done:
			t.Stop()
			return true
		case <-t.C:
		}
	}
}
