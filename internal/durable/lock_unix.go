//go:build unix

package durable

import (
	"fmt"
	"os"
	"syscall"
)

// AcquireLock takes an advisory exclusive flock on path, creating the
// file if needed, and records the holder's PID in it for diagnostics.
// It does not block: when another live process holds the lock it
// returns an error wrapping ErrLocked. A lockfile left behind by a
// SIGKILLed process is not stale — the kernel drops the flock with the
// process — so crash recovery needs no manual cleanup.
func AcquireLock(path string) (*Lock, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: lock %s: %w", path, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK {
			holder, _ := os.ReadFile(path)
			if len(holder) > 0 {
				return nil, fmt.Errorf("%w: %s (held by pid %s)", ErrLocked, path, string(holder))
			}
			return nil, fmt.Errorf("%w: %s", ErrLocked, path)
		}
		return nil, fmt.Errorf("durable: lock %s: %w", path, err)
	}
	// Best-effort holder diagnostics; the flock is the actual lock.
	f.Truncate(0)
	fmt.Fprintf(f, "%d", os.Getpid())
	f.Sync()
	return &Lock{f: f, path: path}, nil
}

// Release removes the lockfile and drops the flock. Safe to call on a
// nil Lock (no-op) so callers can Release unconditionally.
func (l *Lock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	// Remove while still holding the flock so a racing AcquireLock
	// either sees the old inode (and its lock) or no file at all.
	os.Remove(l.path)
	err := syscall.Flock(int(l.f.Fd()), syscall.LOCK_UN)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
