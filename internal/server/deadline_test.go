package server

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/shard"
)

// The bounds a node keeps over TCP: RequestTimeout on a request queued
// behind a busy shard, the idle poll that lets Shutdown finish, and the
// longer deadline a frame gets once it has begun.

// wedge parks shard sh's owner inside a barrier until the returned
// release is called; release waits for the barrier to finish.
func wedge(t *testing.T, e *shard.Engine, sh int) (release func()) {
	t.Helper()
	parked, unpark := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- e.Barrier(func(id int, _ memctrl.Scheme, _ *memctrl.Env) {
			if id == sh {
				close(parked)
				<-unpark
			}
		})
	}()
	<-parked
	released := false
	release = func() {
		if released {
			return
		}
		released = true
		close(unpark)
		if err := <-done; err != nil {
			t.Errorf("barrier: %v", err)
		}
	}
	t.Cleanup(release)
	return release
}

// A scalar write and a batch that reach a wedged shard wait in its queue
// until RequestTimeout and answer with the timeout status; the batch's
// ops on the idle shard succeed. The shard still executes every write
// once it is released.
func TestTCPRequestTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	e, s := testServer(t, shard.Options{Shards: 2}, Config{TCPAddr: "placeholder", RequestTimeout: timeout})
	release := wedge(t, e, 0)
	c := dialTest(t, s)
	// A node that never gave up would hang the test; the client's own
	// deadline turns that into a failure.
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}

	began := time.Now()
	if _, err := c.Write(0, line(1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("write to the wedged shard: got %v, want ErrTimeout", err)
	}
	if d := time.Since(began); d < timeout {
		t.Fatalf("write timed out after %v, before RequestTimeout (%v)", d, timeout)
	}

	ops := make([]BatchWriteOp, 64)
	for i := range ops {
		ops[i] = BatchWriteOp{Addr: uint64(100 + i), Line: line(uint64(i), 7)}
	}
	res := make([]BatchWriteResult, len(ops))
	if err := c.WriteBatch(ops, res); err != nil {
		t.Fatalf("batch frame: %v", err)
	}
	for i, r := range res {
		if e.ShardOf(ops[i].Addr) == 0 {
			if !errors.Is(r.Err, ErrTimeout) {
				t.Fatalf("batch op %d on the wedged shard: got %v, want ErrTimeout", i, r.Err)
			}
		} else if r.Err != nil {
			t.Fatalf("batch op %d on the idle shard: %v", i, r.Err)
		}
	}

	release()
	check := func(addr uint64, want ecc.Line) {
		t.Helper()
		got, err := e.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Hit || got.Data != want {
			t.Fatalf("addr %d after release: hit=%v, data differs=%v; a timed-out write must still execute", addr, got.Hit, got.Data != want)
		}
	}
	check(0, line(1))
	for _, op := range ops {
		check(op.Addr, op.Line)
	}
}

// shutdownWithin shuts s down against a 5 s context and fails unless it
// returns nil within limit.
func shutdownWithin(t *testing.T, s *Server, limit time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	began := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(began); d > limit {
		t.Fatalf("Shutdown took %v, want under %v", d, limit)
	}
}

// A connection left open and idle just after a served frame lets
// Shutdown finish within about one 500 ms poll.
func TestTCPDrainIdleConnection(t *testing.T) {
	_, s := testServer(t, shard.Options{Shards: 2}, Config{TCPAddr: "placeholder"})
	c := dialTest(t, s)
	if _, err := c.Write(1, line(1)); err != nil {
		t.Fatal(err)
	}
	shutdownWithin(t, s, 1500*time.Millisecond)
}

// A write frame whose body arrives 700 ms after its op byte, longer than
// the idle poll, is still served, also when draining starts during the
// pause. After a split frame the connection idles under the short poll
// again, so Shutdown finishes within about one poll of the reply, also
// when the pause was too short to use up the poll armed before it.
func TestTCPSplitFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pause time.Duration
		drain bool
	}{
		{"open", 700 * time.Millisecond, false},
		{"draining", 700 * time.Millisecond, true},
		{"draining-short-pause", 60 * time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, s := testServer(t, shard.Options{Shards: 2}, Config{TCPAddr: "placeholder"})
			conn, err := net.DialTimeout("tcp", s.TCPAddr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(15 * time.Second))

			want := line(42, 43)
			frame := []byte{OpWrite}
			frame = append(frame, make([]byte, traceLen)...)
			frame = append(frame, make([]byte, 8)...)
			putU64(frame[1+traceLen:], 7)
			frame = append(frame, want[:]...)

			if _, err := conn.Write(frame[:1]); err != nil {
				t.Fatal(err)
			}
			shut := make(chan time.Time, 1)
			if tc.drain {
				time.Sleep(tc.pause / 4)
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					if err := s.Shutdown(ctx); err != nil {
						t.Errorf("Shutdown: %v", err)
					}
					shut <- time.Now()
				}()
				time.Sleep(tc.pause - tc.pause/4)
			} else {
				time.Sleep(tc.pause)
			}
			if _, err := conn.Write(frame[1:]); err != nil {
				t.Fatal(err)
			}
			reply := make([]byte, writeBatchRecLen+traceLen)
			if _, err := io.ReadFull(conn, reply); err != nil {
				t.Fatalf("no reply to the split frame: %v", err)
			}
			answered := time.Now()
			if reply[0] != StatusOK {
				t.Fatalf("split frame: status %d", reply[0])
			}
			if got, err := e.Read(7); err != nil || !got.Hit || got.Data != want {
				t.Fatalf("split write not stored: hit=%v err=%v", got.Hit, err)
			}
			if tc.drain {
				if d := (<-shut).Sub(answered); d > time.Second {
					t.Fatalf("Shutdown finished %v after the reply, want under 1s (one 500 ms poll)", d)
				}
			}
		})
	}
}
