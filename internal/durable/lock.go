package durable

import (
	"errors"
	"os"
)

// ErrLocked is returned by AcquireLock when another live process
// holds the lockfile.
var ErrLocked = errors.New("durable: lockfile held by another process")

// Lock is a held advisory lockfile; Release it when done.
type Lock struct {
	f    *os.File
	path string
}
