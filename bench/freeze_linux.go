//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// freeze stops process pid with SIGSTOP and waits until every one of its
// threads has stopped.
func freeze(pid int) error {
	if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Second)
	for !stopped(pid) {
		if time.Now().After(deadline) {
			return errors.Join(fmt.Errorf("process %d did not stop", pid), thaw(pid))
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// thaw resumes a process freeze stopped.
func thaw(pid int) error { return syscall.Kill(pid, syscall.SIGCONT) }

// stopped reports whether every thread of process pid is in the stopped
// state, from the state field of /proc/pid/task/*/stat.
func stopped(pid int) bool {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "stat"))
		if err != nil {
			continue // the thread exited
		}
		// The state follows the parenthesized command name, which may
		// itself hold parentheses.
		i := bytes.LastIndexByte(b, ')')
		if i < 0 || i+2 >= len(b) || (b[i+2] != 'T' && b[i+2] != 't') {
			return false
		}
	}
	return true
}
