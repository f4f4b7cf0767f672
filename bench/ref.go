package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// refNominal is the echo rate (round trips per second) host-clock metrics
// are expressed at: about what the 2-core runner's loopback echo sustained
// when the benchmark was defined.
const refNominal = 100_000

// echoChildEnv, set in the environment to a process id, makes the benchmark
// binary serve as the echo reference's child process for that process (see
// echoChild) instead of running.
const echoChildEnv = "ESDBENCH_ECHO_CHILD"

// echoRef is the runner-speed reference: a closed-loop echo over loopback
// TCP from two connections, with the size of a scalar write frame and its
// reply, and no repository code on the path. The runner's speed for this
// kind of work wanders by ±25% over tens of seconds; measured in slices
// interleaved with the benchmark's traffic, the echo rate tracks that drift,
// and dividing it out leaves a few percent of run-to-run spread.
//
// The echo must not slow down with the stack under test, or it would hide
// the stack's regressions: background work a change adds to the stack (a
// goroutine, garbage collection) would slow the echo too and be divided
// out. So the echo runs in a child process, the benchmark binary started
// with echoChildEnv set, which stops the benchmark, stack included, with
// SIGSTOP while it measures and resumes it after. The stack is idle then
// (its clients wait for the reply), and the pause is far shorter than its
// timeouts: the router's 1 s health probe and the servers' 500 ms idle
// poll, which loops.
type echoRef struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func newEchoRef() (*echoRef, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), echoChildEnv+"="+strconv.Itoa(os.Getpid()))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &echoRef{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// rate has the child run the echo for d, with this process stopped, and
// returns round trips per second.
func (e *echoRef) rate(d time.Duration) (float64, error) {
	if _, err := fmt.Fprintln(e.in, d.Nanoseconds()); err != nil {
		return 0, err
	}
	line, err := e.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("echo child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// close ends the child (it exits when its input closes) and waits for it.
func (e *echoRef) close() error {
	return errors.Join(e.in.Close(), e.cmd.Wait())
}

// echoChild is the child process's main, for the benchmark process whose id
// is pidEnv: for each line of in, a duration in nanoseconds, it freezes the
// benchmark, runs the echo that long, thaws the benchmark and writes the
// rate to out as a line. It returns at the end of in.
func echoChild(pidEnv string, in io.Reader, out io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench echo:", err)
		return 1
	}
	pid, err := strconv.Atoi(pidEnv)
	if err != nil {
		return fail(fmt.Errorf("%s=%q is not a process id", echoChildEnv, pidEnv))
	}
	e, err := newEchoLoop()
	if err != nil {
		return fail(err)
	}
	defer e.close()
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		ns, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			return fail(err)
		}
		r, err := frozen(pid, func() (float64, error) { return e.rate(time.Duration(ns)) })
		if err != nil {
			return fail(err)
		}
		if _, err := fmt.Fprintf(out, "%g\n", r); err != nil {
			return 1
		}
	}
	return 0
}

// frozen runs fn with process pid stopped, and resumes pid even when fn
// panics.
func frozen(pid int, fn func() (float64, error)) (r float64, err error) {
	if err := freeze(pid); err != nil {
		return 0, fmt.Errorf("stop process %d: %w", pid, err)
	}
	defer func() {
		if terr := thaw(pid); terr != nil {
			err = errors.Join(err, fmt.Errorf("resume process %d: %w", pid, terr))
		}
	}()
	return fn()
}

// echoLoop is the echo itself: a loopback server and two client
// connections to it.
type echoLoop struct {
	ln    net.Listener
	conns []net.Conn
	wg    sync.WaitGroup
}

const (
	echoReq  = 1 + 8 + 64 // op, address, line
	echoResp = 1 + 1 + 8 + 8
)

func newEchoLoop() (*echoLoop, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoLoop{ln: ln}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				defer c.Close()
				var req [echoReq]byte
				var resp [echoResp]byte
				for {
					if _, err := io.ReadFull(c, req[:]); err != nil {
						return
					}
					if _, err := c.Write(resp[:]); err != nil {
						return
					}
				}
			}()
		}
	}()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// rate runs the echo from both connections for d and returns round trips
// per second.
func (e *echoLoop) rate(d time.Duration) (float64, error) {
	var wg sync.WaitGroup
	n := make([]int, len(e.conns))
	errs := make([]error, len(e.conns))
	t0 := time.Now()
	deadline := t0.Add(d)
	for i, c := range e.conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			var req [echoReq]byte
			var resp [echoResp]byte
			for time.Now().Before(deadline) {
				if _, err := c.Write(req[:]); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, resp[:]); err != nil {
					errs[i] = err
					return
				}
				n[i]++
			}
		}(i, c)
	}
	wg.Wait()
	total := 0
	for _, k := range n {
		total += k
	}
	return float64(total) / time.Since(t0).Seconds(), errors.Join(errs...)
}

// close stops the echo server and waits for its goroutines.
func (e *echoLoop) close() error {
	err := e.ln.Close()
	for _, c := range e.conns {
		_ = c.Close() // the server side sees EOF and exits
	}
	e.wg.Wait()
	return err
}
