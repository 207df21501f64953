//go:build !unix

package durable

import (
	"fmt"
	"os"
)

// AcquireLock on platforms without flock falls back to O_EXCL
// creation. Unlike the flock variant, a lockfile left by a crashed
// process looks held until it is deleted by hand — the tradeoff of
// not having kernel-owned advisory locks.
func AcquireLock(path string) (*Lock, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			holder, _ := os.ReadFile(path)
			if len(holder) > 0 {
				return nil, fmt.Errorf("%w: %s (held by pid %s)", ErrLocked, path, string(holder))
			}
			return nil, fmt.Errorf("%w: %s", ErrLocked, path)
		}
		return nil, fmt.Errorf("durable: lock %s: %w", path, err)
	}
	fmt.Fprintf(f, "%d", os.Getpid())
	f.Sync()
	return &Lock{f: f, path: path}, nil
}

// Release deletes the lockfile. Safe to call on a nil Lock.
func (l *Lock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	if rerr := os.Remove(l.path); err == nil {
		err = rerr
	}
	l.f = nil
	return err
}
